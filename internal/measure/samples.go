package measure

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Record is the raw outcome of one measurement: the full measurement key
// (algorithm, parameters, grid point, placement, protocol) plus every
// repetition sample and its digest. Persisting records makes a tuning
// run reproducible — the derived table can be re-checked from the
// samples without re-running anything — and two runs diffable.
type Record struct {
	// Algorithm and SegSize identify the measured candidate.
	Algorithm string `json:"algorithm"`
	SegSize   int    `json:"seg_size,omitempty"`
	// Procs and Bytes are the grid point.
	Procs int `json:"procs"`
	Bytes int `json:"bytes"`
	// Placement is the measured placement in CLI syntax.
	Placement string `json:"placement,omitempty"`
	// Warmup and Reps record the measurement protocol.
	Warmup int `json:"warmup"`
	Reps   int `json:"reps"`
	// Stat names the statistic reported to the tuner and Seconds is its
	// value — the number the winner selection saw.
	Stat    string  `json:"stat"`
	Seconds float64 `json:"seconds"`
	// Exec names the rank-execution substrate the world ran on
	// ("goroutine", "pooled(8)") — samples from different substrates are
	// not comparable, so the log must say which produced each record.
	Exec string `json:"exec,omitempty"`
	// Transport names the point-to-point substrate ("chan", "udp"):
	// wall-clock over a real socket is not comparable to the in-process
	// path, so it is part of the measurement key too.
	Transport string `json:"transport,omitempty"`
	// Samples are the per-repetition times (slowest rank per repetition).
	Samples []float64 `json:"samples_sec"`
	// Summary is the robust digest of Samples.
	Summary Summary `json:"summary"`
}

// SampleLog collects the raw records of a measurement run. The zero
// value is ready to use; Add is safe for concurrent use.
type SampleLog struct {
	mu      sync.Mutex
	records []Record
}

// Add appends one record.
func (l *SampleLog) Add(r Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.records = append(l.records, r)
}

// Records returns a copy of the recorded measurements in insertion
// order (the tuner's deterministic grid order).
func (l *SampleLog) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Record(nil), l.records...)
}

// JSON serializes the log, indented for human inspection and diffing.
func (l *SampleLog) JSON() ([]byte, error) {
	return json.MarshalIndent(l.Records(), "", "  ")
}

// Save writes the log as a JSON array of records.
func (l *SampleLog) Save(path string) error {
	data, err := l.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadSampleLog reads a log written by Save.
func LoadSampleLog(path string) (*SampleLog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("measure: load samples: %w", err)
	}
	var records []Record
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("measure: parse samples: %w", err)
	}
	return &SampleLog{records: records}, nil
}

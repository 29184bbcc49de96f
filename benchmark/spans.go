package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// span is one call from the benchmark into a layer of the stack.
type span struct {
	name   string
	id     uint32
	parent uint32 // id of the span that caused this one; 0 = none
	round  int32  // shared by the np rank spans of one round; -1 outside rounds
	start  int64  // ns since the recorder's epoch
	end    int64
}

// recorder keeps the benchmark-side spans of a traced run in memory:
// one lane per rank plus a driver lane for the calls made between runs
// (NewCluster, Run, Metrics, Close). Each lane is written by one
// goroutine at a time, so only the id counter is shared. A lane keeps
// its first laneCap spans and counts the rest as dropped, which bounds
// both memory and the size of the exported file.
type recorder struct {
	epoch   time.Time
	nextID  atomic.Uint32
	lanes   [][]span // lanes[np] is the driver
	dropped []int64
	laneCap int
}

// maxTraceEvents bounds one exported timeline; lanes share it.
const maxTraceEvents = 32768

func newRecorder(np int) *recorder {
	laneCap := maxTraceEvents / (np + 1)
	rc := &recorder{epoch: time.Now(), lanes: make([][]span, np+1), dropped: make([]int64, np+1), laneCap: laneCap}
	for i := range rc.lanes {
		rc.lanes[i] = make([]span, 0, laneCap)
	}
	return rc
}

func (rc *recorder) driver() int { return len(rc.lanes) - 1 }

// begin opens a span: it hands out the id (so children can name their
// parent before the span closes) and the start time.
func (rc *recorder) begin() (id uint32, start int64) {
	return rc.nextID.Add(1), int64(time.Since(rc.epoch))
}

// end closes a span opened by begin and files it under lane.
func (rc *recorder) end(lane int, name string, id, parent uint32, round int, start int64) {
	end := int64(time.Since(rc.epoch))
	if len(rc.lanes[lane]) >= rc.laneCap {
		rc.dropped[lane]++
		return
	}
	rc.lanes[lane] = append(rc.lanes[lane], span{name: name, id: id, parent: parent, round: int32(round), start: start, end: end})
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace exports the spans as Chrome trace-event JSON
// (chrome://tracing, Perfetto): pid names the workload, tid the rank.
func (rc *recorder) writeChromeTrace(path, workload string, pid int) error {
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": workload}}}
	var dropped int64
	for lane, spans := range rc.lanes {
		label := fmt.Sprintf("rank %d", lane)
		if lane == rc.driver() {
			label = "driver"
		}
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: lane, Args: map[string]any{"name": label}})
		dropped += rc.dropped[lane]
		for _, sp := range spans {
			args := map[string]any{"id": sp.id}
			if sp.parent != 0 {
				args["parent"] = sp.parent
			}
			if sp.round >= 0 {
				args["round"] = sp.round
			}
			events = append(events, chromeEvent{
				Name: sp.name, Ph: "X", Pid: pid, Tid: lane,
				Ts: float64(sp.start) / 1e3, Dur: float64(sp.end-sp.start) / 1e3, Args: args,
			})
		}
	}
	data, err := json.Marshal(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
		"otherData":       map[string]any{"workload": workload, "dropped_spans": dropped},
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

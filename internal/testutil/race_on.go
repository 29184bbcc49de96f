//go:build race

package testutil

// RaceEnabled reports whether the race detector is compiled in. Tests
// that assert allocation counts skip under -race: the detector's own
// bookkeeping allocates, so the counts are meaningless there. So do the
// architecture tests, which do not depend on it and run far slower
// under it.
const RaceEnabled = true

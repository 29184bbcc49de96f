package engine

// SetStackProbe makes probe the hook every rank goroutine calls once its
// stack has grown and again when its body returns, and returns the call
// that puts the previous hook back.
func SetStackProbe(probe func(rank int)) (restore func()) {
	old := stackProbe
	stackProbe = probe
	return func() { stackProbe = old }
}

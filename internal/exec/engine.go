package exec

// Engine once selected how doacross regions ran on the host.
//
// Deprecated: every run takes the serial region loop (region.go); Engine,
// its constants and Options.Engine are kept only because the benchmark
// harness still names them, and are ignored.
type Engine int

// Deprecated: see Engine.
const (
	EngineAuto Engine = iota
	EngineSerial
	EngineParallel
)

// Deprecated: see Engine.
func (e Engine) String() string {
	switch e {
	case EngineSerial:
		return "serial"
	case EngineParallel:
		return "parallel"
	}
	return "auto"
}

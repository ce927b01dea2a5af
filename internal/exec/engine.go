package exec

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
)

// Engine selects how doacross regions are executed on the host.
//
// Both engines produce bit-identical simulations — every simulated cycle,
// stat counter, and recorder event is the same; only host wall time
// differs. The serial engine interleaves all simulated processors on one
// goroutine; the parallel engine runs them on real cores in speculative
// epochs with serial fallback (see parallel.go and DESIGN.md
// "Concurrency model").
type Engine int

const (
	// EngineAuto picks parallel when both the simulated machine and the
	// host (GOMAXPROCS) have more than one processor, serial otherwise.
	// Parallel is a ceiling, not a promise: a region speculates only if it
	// got a second host worker, an epoch only if two threads are
	// runnable, and the speculation governor (parallel.go) runs the
	// stretches of a program that keep falling back through the serial
	// engine's own loop, so a program that never commits costs about what
	// serial does. The DSM_ENGINE environment variable
	// (serial|parallel|auto) overrides Auto — but never an explicit
	// Options.Engine — so CI can force an engine across an existing test
	// suite.
	EngineAuto Engine = iota
	EngineSerial
	EngineParallel
)

// ParseEngine parses a -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "auto", "":
		return EngineAuto, nil
	case "serial":
		return EngineSerial, nil
	case "parallel":
		return EngineParallel, nil
	}
	return EngineAuto, fmt.Errorf("unknown engine %q (accepted: serial, parallel, auto)", s)
}

func (e Engine) String() string {
	switch e {
	case EngineSerial:
		return "serial"
	case EngineParallel:
		return "parallel"
	}
	return "auto"
}

// resolveEngine applies the DSM_ENGINE override and the auto rule.
func resolveEngine(e Engine, nprocs int) Engine {
	if e == EngineAuto {
		if env := os.Getenv("DSM_ENGINE"); env != "" {
			if pe, err := ParseEngine(env); err == nil {
				e = pe
			}
		}
	}
	if e == EngineAuto {
		if nprocs > 1 && runtime.GOMAXPROCS(0) > 1 {
			e = EngineParallel
		} else {
			e = EngineSerial
		}
	}
	return e
}

// resolveWorkers applies the DSM_WORKERS override to an unset
// Options.Workers. 0 means "draw from the hostpool budget per region".
func resolveWorkers(w int) int {
	if w <= 0 {
		if env := os.Getenv("DSM_WORKERS"); env != "" {
			if n, err := strconv.Atoi(env); err == nil && n > 0 {
				w = n
			}
		}
	}
	return w
}

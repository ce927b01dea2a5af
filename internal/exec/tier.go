package exec

// Tier names one of the two bytecode interpreters: the classic
// switch-dispatch loop or the block-compiled fused-closure translation
// (internal/bytecode compile.go/compiled.go).
//
// It is a reference selector, not a run-time choice. Every run a user, a
// dsmd job or a sweep makes executes on the compiled tier; no flag,
// environment variable or request field reaches this type. The classic
// interpreter stays as the in-process reference that core's identity
// fuzzers (TestTierFuzzClassicVsCompiled, TestEngineFuzzSerialVsParallel)
// and bench/'s oracle pin through Options.Tier, and as the member list the
// compiled tier replays for exact mid-span traps. Both are
// bit-identical in simulated behavior — every charged cycle, stat counter,
// trap message and quantum break point — and compose with either Engine.
type Tier int

const (
	// TierAuto is the zero value every production caller leaves in place;
	// it resolves to the compiled tier.
	TierAuto Tier = iota
	TierClassic
	TierCompiled
)

func (t Tier) String() string {
	switch t {
	case TierClassic:
		return "classic"
	case TierCompiled:
		return "compiled"
	}
	return "auto"
}

// Resolve yields the tier a run with this setting executes on: auto is
// compiled, a pinned tier is itself. bench/ uses it to note the tier its
// numbers were taken under.
func (t Tier) Resolve() Tier {
	if t == TierAuto {
		return TierCompiled
	}
	return t
}

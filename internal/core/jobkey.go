package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"

	"dsmdist/internal/ospage"
	"dsmdist/internal/xform"
)

// JobKeyVersion is folded into every JobKey and CompileKey digest. The keys
// are the contract between clients and the dsmd disk store: entries written
// by one release must stay valid in the next, so the key derivation below
// is frozen. Any change to the digest inputs or their encoding MUST bump
// this version (a deliberate, reviewed act — it invalidates every persisted
// cache entry). The golden-file test in jobkey_test.go pins the derivation;
// if it fails, either revert the change or bump the version and update the
// golden file in the same commit.
const JobKeyVersion = 1

// JobSpec is everything that determines a run's simulated result. The
// simulator is deterministic: PR 5/PR 7 guarantee results are bit-identical
// across host engines and execution tiers, so those host-side choices are
// deliberately NOT part of the spec — a result computed under any
// engine/tier combination is valid for all of them. That purity is what
// makes run results content-addressable and shareable across users.
type JobSpec struct {
	// Sources is the named source set, exactly as passed to
	// Toolchain.Build.
	Sources map[string]string
	// Opt and RuntimeChecks are the compile options (they change generated
	// code, hence simulated cycles).
	Opt           xform.Options
	RuntimeChecks bool
	// Machine names the machine preset (origin2000, scaled, tiny): a
	// preset name plus Procs fully determines the machine configuration.
	Machine string
	// Procs is the simulated processor count.
	Procs int
	// Policy is the default page-placement policy for undistributed pages.
	Policy ospage.Policy
	// Quantum is the instruction interleave granularity (0 = the
	// executor's default; 0 and the literal default are distinct keys, so
	// keep 0 unless you mean to override).
	Quantum int
}

// CompileKey digests a source set and the compile-relevant options into the
// stable content-address used for compiled images, both by the in-memory
// BuildCache and the dsmd disk store. Any new option that changes generated
// code must be added here — and doing so requires bumping JobKeyVersion
// (see its doc comment).
func CompileKey(sources map[string]string, opt xform.Options, runtimeChecks bool) string {
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	fmt.Fprintf(h, "dsmcompile/v%d|tile=%v hoist=%v cse=%v fpdiv=%v checks=%v",
		JobKeyVersion, opt.TilePeel, opt.Hoist, opt.CSE, opt.FPDiv, runtimeChecks)
	for _, n := range names {
		src := sources[n]
		fmt.Fprintf(h, "|%d:%s|%d:", len(n), n, len(src))
		h.Write([]byte(src))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// JobKey digests a full run specification into the stable content-address
// used for run results. Two jobs with the same key produce byte-identical
// result documents, regardless of which host, engine, tier, or worker
// count computes them. The derivation is frozen; see JobKeyVersion.
func JobKey(s JobSpec) string {
	h := sha256.New()
	// "redist-serial=false" is the value of a spec field that no longer
	// exists (every job runs the scheduled c$redistribute model). The
	// literal keeps every persisted digest valid; it leaves at the next
	// JobKeyVersion bump, not before.
	fmt.Fprintf(h, "dsmjob/v%d|compile=%s|machine=%s|procs=%d|policy=%s|quantum=%d|redist-serial=false",
		JobKeyVersion,
		CompileKey(s.Sources, s.Opt, s.RuntimeChecks),
		s.Machine, s.Procs, s.Policy, s.Quantum)
	return hex.EncodeToString(h.Sum(nil))
}

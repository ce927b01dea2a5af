package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dsmdist/internal/ospage"
	"dsmdist/internal/xform"
)

var updateJobKey = flag.Bool("update-jobkey", false,
	"rewrite testdata/jobkey_golden.txt (a deliberate cache-key bump: every persisted dsmd store entry is invalidated)")

// goldenSpec is the frozen input whose keys the golden file pins. Do not
// edit it — a new input means a new golden line, not a changed one.
func goldenSpec() JobSpec {
	return JobSpec{
		Sources: map[string]string{
			"main.f": "      program p\n      integer i\n      end\n",
			"sub.f":  "      subroutine s\n      end\n",
		},
		Opt:           xform.O3(),
		RuntimeChecks: true,
		Machine:       "scaled",
		Procs:         16,
		Policy:        ospage.FirstTouch,
		Quantum:       0,
	}
}

// TestJobKeyGolden pins the CompileKey/JobKey derivation against a golden
// file. These keys address persisted dsmd store entries, so they must not
// drift between releases: if this test fails you have changed the key
// contract. Either revert, or — deliberately — bump JobKeyVersion and
// regenerate with `go test ./internal/core -run JobKeyGolden -update-jobkey`.
func TestJobKeyGolden(t *testing.T) {
	s := goldenSpec()
	got := fmt.Sprintf("version %d\ncompile %s\njob %s\n",
		JobKeyVersion,
		CompileKey(s.Sources, s.Opt, s.RuntimeChecks),
		JobKey(s))

	path := filepath.Join("testdata", "jobkey_golden.txt")
	if *updateJobKey {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("cache-key derivation drifted from the pinned contract.\ngot:\n%swant:\n%s"+
			"(persisted dsmd store entries would be orphaned; bump core.JobKeyVersion "+
			"and -update-jobkey only as a deliberate, reviewed change)", got, want)
	}
}

// TestJobKeySensitivity: every field that changes the simulated result must
// change the key; the host-side tier knob is (by design) not part of the
// spec at all.
func TestJobKeySensitivity(t *testing.T) {
	base := JobKey(goldenSpec())

	mutations := map[string]func(*JobSpec){
		"source text":    func(s *JobSpec) { s.Sources["main.f"] += "c comment\n" },
		"source name":    func(s *JobSpec) { s.Sources["renamed.f"] = s.Sources["main.f"]; delete(s.Sources, "main.f") },
		"opt level":      func(s *JobSpec) { s.Opt = xform.O0() },
		"runtime checks": func(s *JobSpec) { s.RuntimeChecks = false },
		"machine":        func(s *JobSpec) { s.Machine = "tiny" },
		"procs":          func(s *JobSpec) { s.Procs = 32 },
		"policy":         func(s *JobSpec) { s.Policy = ospage.RoundRobin },
		"quantum":        func(s *JobSpec) { s.Quantum = 4000 },
	}
	for name, mutate := range mutations {
		s := goldenSpec()
		mutate(&s)
		if JobKey(s) == base {
			t.Errorf("mutating %s did not change the job key", name)
		}
	}

	if JobKey(goldenSpec()) != base {
		t.Error("identical specs produced different keys")
	}
}

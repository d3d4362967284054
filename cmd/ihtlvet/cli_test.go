package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ihtl/internal/analyzers"
)

// exec runs the CLI in-process and returns its exit code plus captured
// stdout/stderr.
func execVet(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestListShowsAllAnalyzers pins -list to the full 8-pass suite: a
// pass added to All() without surfacing in the CLI (or removed
// silently) fails here.
func TestListShowsAllAnalyzers(t *testing.T) {
	code, out, _ := execVet(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	wantNames := []string{
		"noalloc", "skipzero", "atomicfield", "parcapture",
		"ctxleak", "determinism", "faultsite", "nopanic",
	}
	for _, name := range wantNames {
		if !strings.Contains(out, name) {
			t.Errorf("-list output is missing analyzer %q", name)
		}
	}
	if got := len(analyzers.All()); got != len(wantNames) {
		t.Errorf("analyzers.All() has %d passes, the CLI contract pins %d; update this test and the docs together", got, len(wantNames))
	}
}

// TestJSONGolden pins the -json output shape — field order, root-
// relative paths, sort order — against a recorded golden file. The
// fixture package carries one determinism and one nopanic finding.
func TestJSONGolden(t *testing.T) {
	code, out, stderr := execVet(t, "-json", "cmd/ihtlvet/testdata/src/jsondemo")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (diagnostics reported); stderr:\n%s", code, stderr)
	}
	golden, err := os.ReadFile("testdata/jsondemo_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if out != string(golden) {
		t.Errorf("-json output drifted from golden file:\n--- got ---\n%s\n--- want ---\n%s", out, golden)
	}
}

// TestExitCodes pins the vet-compatible exit code contract: 0 clean,
// 1 diagnostics, 2 usage/load errors.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean", []string{"-analyzers=noalloc", "cmd/ihtlvet/testdata/src/jsondemo"}, 0},
		{"findings", []string{"cmd/ihtlvet/testdata/src/jsondemo"}, 1},
		{"unknown analyzer", []string{"-analyzers=bogus"}, 2},
		{"unknown package", []string{"internal/definitely/not/here"}, 2},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := execVet(t, tc.args...)
			if code != tc.want {
				t.Errorf("run(%v) exit = %d, want %d; stderr:\n%s", tc.args, code, tc.want, stderr)
			}
		})
	}
}

// TestGateWaiverIndex exercises the gates' annotation loader: against
// the real module the //ihtl:nobce kernels must be indexed, and against
// a fixture module an //ihtl:allow-boundscheck waiver must cover its
// line. The product code carries no waiver today, so the waiver half
// runs on the fixture.
func TestGateWaiverIndex(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analyzers.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := loadAnnotations(root, []*gateSpec{bceGate, escapeGate})
	if err != nil {
		t.Fatal(err)
	}
	nobce := ann.funcs["nobce"]
	total := 0
	for _, frs := range nobce {
		total += len(frs)
	}
	if total == 0 {
		t.Fatal("no //ihtl:nobce functions indexed; the kernel annotations are gone or the loader is broken")
	}
	for _, fn := range []string{"pushTaskFlat", "pushTaskFlatBatch", "sparsePullRange", "sparseLightPart"} {
		found := false
		for _, frs := range nobce {
			for _, fr := range frs {
				if fr.name == fn {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("expected //ihtl:nobce function %s in the gate index", fn)
		}
	}

	fixture := t.TempDir()
	src := `package k

//ihtl:nobce
func clearTail(dst []float64, lo, hi int) {
	clear(dst[lo:hi]) //ihtl:allow-boundscheck clamped by the caller
}
`
	if err := os.WriteFile(filepath.Join(fixture, "k.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fann, err := loadAnnotations(fixture, []*gateSpec{bceGate})
	if err != nil {
		t.Fatal(err)
	}
	if frs := fann.funcs["nobce"]["k.go"]; len(frs) != 1 || frs[0].name != "clearTail" {
		t.Errorf("fixture //ihtl:nobce index = %+v, want clearTail", frs)
	}
	if !fann.waived["allow-boundscheck"]["k.go"][5] {
		t.Errorf("fixture waiver on line 5 not indexed: %+v", fann.waived["allow-boundscheck"])
	}
}

package gorace_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBinariesBuildAndRun compiles every command and example and
// executes each with fast arguments, asserting on headline output.
// This is the repo's end-to-end smoke: public API, corpus, detectors,
// simulations, and the CLIs all have to cooperate.
func TestBinariesBuildAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("binary integration skipped in -short mode")
	}
	bin := t.TempDir()

	build := func(pkg string) string {
		t.Helper()
		name := filepath.Join(bin, filepath.Base(pkg))
		cmd := exec.Command("go", "build", "-o", name, "./"+pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
		return name
	}

	runOK := func(name string, wantSubstr string, args ...string) string {
		t.Helper()
		out, err := exec.Command(name, args...).CombinedOutput()
		if err != nil {
			if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 ||
				!strings.Contains(filepath.Base(name), "staticrace") {
				t.Fatalf("run %s %v: %v\n%s", name, args, err, out)
			}
		}
		if wantSubstr != "" && !strings.Contains(string(out), wantSubstr) {
			t.Fatalf("%s %v output missing %q:\n%s", name, args, wantSubstr, out)
		}
		return string(out)
	}

	// Commands.
	racedetect := build("cmd/racedetect")
	runOK(racedetect, "capture-loop-index", "-list")
	runOK(racedetect, "WARNING: DATA RACE", "-pattern", "capture-err", "-seeds", "40")

	gocount := build("cmd/gocount")
	runOK(gocount, "Table 1", "-go-lines", "50000", "-java-lines", "20000")

	fleetscan := build("cmd/fleetscan")
	runOK(fleetscan, "p50", "-seed", "7")

	racespy := build("cmd/racespy")
	runOK(racespy, "Figure 3", "-days", "60")
	runOK(racespy, "day,outstanding", "-days", "30", "-fig3")
	runOK(racespy, "end-to-end deployment", "-real", "-days", "4")

	racetable := build("cmd/racetable")
	runOK(racetable, "Concurrent slice access", "-scale", "0.05")

	staticraceBin := build("cmd/staticrace")
	racy := filepath.Join(bin, "racy.go")
	if err := os.WriteFile(racy, []byte("package d\nfunc f(js []int){for _,j:=range js{go func(){_=j}()}}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runOK(staticraceBin, "loop-capture", racy)

	raceanalyze := build("cmd/raceanalyze")
	traceFile := filepath.Join(bin, "m.trace")
	out, err := exec.Command(racedetect, "-pattern", "map-concurrent-write",
		"-save-trace", traceFile, "-seeds", "40").CombinedOutput()
	if err != nil {
		t.Fatalf("save-trace: %v\n%s", err, out)
	}
	runOK(raceanalyze, "unique race", "-trace", traceFile)
	// The same binary trace through online streaming ingest, unbounded
	// and under a memory ceiling (the paged detector's CLI path).
	runOK(racedetect, "WARNING: DATA RACE", "-stream", traceFile)
	runOK(racedetect, "ceiling: 1 MiB", "-stream", traceFile, "-mem-ceiling", "1")

	// Examples.
	runOK(build("examples/quickstart"), "clean: no race under any of 50 seeds")
	runOK(build("examples/future"), "clean: no race, no leak")
	runOK(build("examples/deployment"), "dedup hash stability")
	runOK(build("examples/flakiness"), "P(race detected in one run)")
	runOK(build("examples/nightly"), "running 20 nights")
}

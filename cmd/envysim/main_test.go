package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"testing"
)

// runMainEnv makes the test binary act as the command: TestMain runs
// main instead of the tests when it is set, so a test can run the real
// command line in a child process.
const runMainEnv = "ENVY_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCommand runs the command with args and returns its stdout.
func runCommand(t *testing.T, args ...string) ([]byte, error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Logf("stderr:\n%s", stderr.Bytes())
	}
	return out, err
}

// TestSmoke runs a short TPC-A simulation with the invariant checker
// on and compares its report with the golden, which is the command's
// own output; regenerate it with
//
//	go run ./cmd/envysim -rate 2000 -seconds 0.2 -warm 0.1 -check > cmd/envysim/testdata/smoke.golden
func TestSmoke(t *testing.T) {
	got, err := runCommand(t, "-rate", "2000", "-seconds", "0.2", "-warm", "0.1", "-check")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/smoke.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/smoke.golden\n--- got:\n%s--- want:\n%s", got, want)
	}
}

// TestRemovedFlagRejected: a flag that no longer exists (-lanes went
// with the execution lanes) must fail the run, not be ignored.
func TestRemovedFlagRejected(t *testing.T) {
	_, err := runCommand(t, "-lanes", "2")
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("-lanes accepted: %v", err)
	}
}

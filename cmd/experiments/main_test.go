package main

import (
	"bytes"
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

// TestSmoke prints the two static tables and compares them with the
// golden, which is the command's own output; regenerate it with
//
//	go run ./cmd/experiments fig1 fig12 > cmd/experiments/testdata/fig1_fig12.golden
func TestSmoke(t *testing.T) {
	cmd := exec.Command(os.Args[0], "fig1", "fig12")
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("%v\nstderr:\n%s", err, stderr.Bytes())
	}
	want, err := os.ReadFile("testdata/fig1_fig12.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from testdata/fig1_fig12.golden\n--- got:\n%s--- want:\n%s", got, want)
	}
}

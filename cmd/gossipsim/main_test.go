package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestMain runs the command itself when re-executed by a test below, so
// its exit status can be checked.
func TestMain(m *testing.M) {
	if os.Getenv("GOSSIPSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUntilRejected: a horizon that is not positive and finite is a usage
// error (exit 2), on both engines. Unchecked, NaN and +Inf never stop the
// run (t >= maxT is never true), and a horizon <= 0 simulates nothing.
func TestUntilRejected(t *testing.T) {
	for _, until := range []string{"NaN", "0", "-1", "+Inf"} {
		for _, shards := range []string{"0", "2"} {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			cmd := exec.CommandContext(ctx, os.Args[0], "-n", "16", "-algo", "vanilla", "-shards", shards, "-until", until)
			cmd.Env = append(os.Environ(), "GOSSIPSIM_RUN_MAIN=1")
			out, err := cmd.CombinedOutput()
			cancel()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Errorf("-until %s -shards %s: err %v, want exit status 2; output:\n%s", until, shards, err, out)
			}
		}
	}
}

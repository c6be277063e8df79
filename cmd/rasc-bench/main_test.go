package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A flag the command does not define, a bad value, a seed count below
// one or a figure the paper does not have is a usage error: exit code 2
// with the complaint on stderr and nothing on stdout, before any sweep
// runs.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-seeds", "many"},
		{"-seeds", "-1"},
		{"-seeds", "0"},
		{"-figure", "5"},
		{"-figure", "12"},
		{"-rates", "5,fast"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("rasc-bench %s: exit %d, stdout %q, stderr %q; want 2, empty, a complaint",
				strings.Join(args, " "), code, stdout.String(), stderr.String())
		}
	}
}

// A CSV directory that cannot be created fails the run, on the figure
// path and on the scalability path alike.
func TestRunReportsCSVWriteErrors(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(blocker, "out") // a directory under a regular file
	for _, args := range [][]string{
		{"-seeds", "1", "-rates", "10", "-figure", "6", "-quiet", "-csv", dir},
		{"-scalability", "-quiet", "-csv", dir},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 || stderr.Len() == 0 {
			t.Errorf("rasc-bench %s: exit %d, stderr %q; want 1 and the write error",
				strings.Join(args, " "), code, stderr.String())
		}
	}
}

// The figure 6 CSV of a one-seed, one-rate sweep is deterministic. The
// golden was written by the command before it took its arguments through
// run, with the same flags; re-pin it only for a change meant to move
// simulated outcomes.
func TestRunWritesFigureCSV(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "figure6-seed1-rate10.csv"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	args := []string{"-seeds", "1", "-rates", "10", "-figure", "6", "-csv", dir, "-quiet"}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("rasc-bench %s exited %d: %s", strings.Join(args, " "), code, stderr.String())
	}
	got, err := os.ReadFile(filepath.Join(dir, "figure6.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("figure6.csv\n%s\nwant\n%s", got, want)
	}
}

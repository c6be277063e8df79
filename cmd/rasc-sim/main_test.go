package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The report of a seeded run is deterministic. The goldens were first
// written by the commit before the simulator's hot-path rewrite (typed
// event queue, sorted leaf-set insertion, allocation-light unit hop), so
// they were also the end-to-end proof that the rewrite changed no simulated
// outcome. They were re-pinned once since, when a source began to send its
// head unit at activation: both runs deliver 49 of 54 units (90.7 %), where
// the plain one delivered 48 of 53 and the admission run 38 of 48. Re-pin
// one only for a change meant to move outcomes: run rasc-sim with the
// test's arguments and write its stdout over the file.
func TestRunMatchesGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"nodes16-seed1.golden", []string{"-nodes", "16", "-duration", "5s", "-seed", "1"}},
		{"nodes16-seed1-admission-adapt.golden", []string{"-nodes", "16", "-duration", "5s", "-seed", "1", "-admission", "-adapt-interval", "1s"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("rasc-sim %s exited %d: %s", strings.Join(tc.args, " "), code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Fatalf("rasc-sim %s printed\n%s\nwant\n%s", strings.Join(tc.args, " "), got, want)
			}
		})
	}
}

// A flag the command does not define, or a bad value, is a usage error:
// exit code 2 with the complaint on stderr and nothing on stdout.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-nodes", "many"},
		{"-composer", "bogus"},
		{"-priority", "urgent"},
		{"-unit", "0"},
		{"-nodes", "0"},
		{"-nodes", "-1"},
		{"-adapt-interval", "-1s"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("rasc-sim %s: exit %d, stdout %q, stderr %q; want 2, empty, a complaint",
				strings.Join(args, " "), code, stdout.String(), stderr.String())
		}
	}
}

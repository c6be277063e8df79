package main

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// A flag the command does not define, a bad value, an unknown -priority
// class, an unknown -composer, a -record-ttl not above -refresh-interval
// or -cluster with -no-gossip is a usage error: exit code 2 with the
// complaint on stderr and nothing on stdout, before any socket is opened.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-no-such-flag"}, "no-such-flag"},
		{[]string{"-rate", "fast"}, "rate"},
		{[]string{"-priority", "urgent"}, "urgent"},
		{[]string{"-composer", "bogus", "-submit", "filter"}, "bogus"},
		{[]string{"-submit", "filter", "-unit", "0"}, "-unit"},
		{[]string{"-adapt-interval", "-1s"}, "-adapt-interval"},
		{[]string{"-record-ttl", "1s"}, "RecordTTL"},
		{[]string{"-cluster", "c0", "-no-gossip"}, "requires gossip"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(), tc.args, &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("rasc-node %s: exit %d, stdout %q, stderr %q; want 2, empty, a complaint naming %q",
				strings.Join(tc.args, " "), code, stdout.String(), stderr.String(), tc.want)
		}
	}
}

// syncBuffer is a bytes.Buffer the command writes to on its goroutine while
// the test reads it on its own.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// A node started on an ephemeral loopback port says where it listens and
// exits 0 when its context is cancelled (an interrupt, in main).
func TestRunServesUntilCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, []string{"-listen", "127.0.0.1:0", "-name", "cmd-test", "-services", "filter"}, &stdout, &stderr)
	}()
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(stdout.String(), "node up at 127.0.0.1:"); time.Sleep(10 * time.Millisecond) {
		select {
		case code := <-done:
			t.Fatalf("rasc-node exited %d before it was up: stdout %q, stderr %q", code, stdout.String(), stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no \"node up\" line within 10 s: stdout %q, stderr %q", stdout.String(), stderr.String())
		}
	}
	cancel()
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("exit %d after cancellation, want 0 (stderr %q)", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("rasc-node did not return within 10 s of its context being cancelled")
	}
}

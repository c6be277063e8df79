package rasc

import (
	"os"
	"os/exec"
	"testing"
)

// The benchmark suite in bench/ is a module of its own (the benchmark
// contract: own go.mod, replaced onto this tree), so `go build ./...` and
// `go test ./...` here never compile it, and an internal/* signature it
// uses can move without tier-1 noticing. This builds and vets it against
// the tree. -o discards the binary `go build` would otherwise leave in
// bench/.
func TestBenchModuleBuildsAgainstTree(t *testing.T) {
	for _, args := range [][]string{
		{"build", "-C", "bench", "-o", os.DevNull, "./..."},
		{"vet", "-C", "bench", "./..."},
	} {
		cmd := exec.Command("go", args...)
		// The suite's only dependency is this tree; never reach for a
		// network or another toolchain to find out otherwise.
		cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// procHWM returns a process's peak resident set size (VmHWM) in MiB;
// pid 0 means this process.
func procHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// cpuSeconds returns this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// gitCommit returns the checked-out commit, or "unknown" outside a git
// repository.
func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares the library module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil &&
			bytes.HasPrefix(data, []byte("module repro\n")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no repository root (go.mod of module repro) above the working directory")
		}
		dir = parent
	}
}

// exitHooks are the releases every exit path runs: child processes are
// killed and temporary directories removed, on return, panic, SIGINT or
// SIGTERM alike.
var exitHooks struct {
	mu  sync.Mutex
	fns []func()
}

// atExit registers fn to run once at exit, after the hooks registered
// later.
func atExit(fn func()) {
	exitHooks.mu.Lock()
	exitHooks.fns = append(exitHooks.fns, sync.OnceFunc(fn))
	exitHooks.mu.Unlock()
}

// runExitHooks runs the registered hooks, newest first.
func runExitHooks() {
	exitHooks.mu.Lock()
	fns := exitHooks.fns
	exitHooks.fns = nil
	exitHooks.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// catchSignals runs the exit hooks and exits on SIGINT or SIGTERM until
// the returned stop is called.
func catchSignals() (stop func()) {
	sig := make(chan os.Signal, 1)
	done := make(chan struct{})
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "bench: %s: cleaning up\n", s)
			runExitHooks()
			os.Exit(130)
		case <-done:
		}
	}()
	return func() {
		signal.Stop(sig)
		close(done)
	}
}

package service

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// maxTestRSS bounds the test binary's peak resident set. A Server that a
// test never Kills or Drains keeps its writer goroutines, and through them
// every live bundle and epoch, until the process exits; with three test sites
// leaking, this package peaked at 8.75 GB and OOMed 16 GB boxes under -race.
// With every server released it peaks near 1.3 GB.
const maxTestRSS = 3 << 30

// TestMain fails the package when its peak RSS (VmHWM) crosses maxTestRSS.
// Linux only, and not under -race, whose shadow memory multiplies every
// allocation. A -run subset passes trivially, which is fine: the bound is on
// the whole package in one process.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && runtime.GOOS == "linux" && !raceEnabled {
		if hwm, err := peakRSS(); err != nil {
			fmt.Fprintln(os.Stderr, "rss guard: cannot read peak RSS:", err)
			code = 1
		} else if hwm > maxTestRSS {
			fmt.Fprintf(os.Stderr, "rss guard: peak RSS %d MiB > %d MiB: a test leaves a Server running (t.Cleanup(s.Kill))\n", hwm>>20, maxTestRSS>>20)
			code = 1
		}
	}
	os.Exit(code)
}

// peakRSS reads VmHWM from /proc/self/status, in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

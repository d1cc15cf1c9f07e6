// Package rssguard bounds a test binary's peak resident set. `go test ./...`
// runs packages side by side on one machine, so a package whose fixtures
// outgrow their share gets the whole run OOM-killed; a guarded package
// fails by itself instead, naming its peak.
package rssguard

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// Main runs the package's tests and returns their exit code, failing a
// passing run whose peak RSS (VmHWM) crossed limit bytes; hint says what
// usually causes that in the package. Call it from TestMain as
// os.Exit(rssguard.Main(m, limit, hint)). Linux only, and not under -race,
// whose shadow memory multiplies every allocation. A -run subset passes
// trivially, which is fine: the bound is on the whole package in one
// process.
func Main(m *testing.M, limit int64, hint string) int {
	code := m.Run()
	if code != 0 || runtime.GOOS != "linux" || raceEnabled {
		return code
	}
	hwm, err := peakRSS()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rss guard: cannot read peak RSS:", err)
		return 1
	}
	if hwm > limit {
		fmt.Fprintf(os.Stderr, "rss guard: peak RSS %d MiB > %d MiB: %s\n", hwm>>20, limit>>20, hint)
		return 1
	}
	return code
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

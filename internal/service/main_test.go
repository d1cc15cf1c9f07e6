package service

import (
	"os"
	"testing"

	"graphsketch/internal/rssguard"
)

// maxTestRSS bounds the test binary's peak resident set. A Server that a
// test never Kills or Drains keeps its writer goroutines, and through them
// every live bundle and epoch, until the process exits; with three test sites
// leaking, this package peaked at 8.75 GB and OOMed 16 GB boxes under -race.
// With every server released it peaks near 1.3 GB.
const maxTestRSS = 3 << 30

func TestMain(m *testing.M) {
	os.Exit(rssguard.Main(m, maxTestRSS, "a test leaves a Server running (t.Cleanup(s.Kill))"))
}

package graphsketch

import (
	"os"
	"testing"

	"graphsketch/internal/rssguard"
)

// maxTestRSS bounds this package's test binary, which shares the machine
// with the other packages `go test ./...` runs beside it. Wire and merge
// tests need the smallest sketch that reaches every bank, not the defaults.
const maxTestRSS = 2 << 30

func TestMain(m *testing.M) {
	os.Exit(rssguard.Main(m, maxTestRSS, "a test's fixture outgrew it; shrink n, K or eps"))
}

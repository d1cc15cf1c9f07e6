package sparsify

import (
	"os"
	"testing"

	"graphsketch/internal/rssguard"
)

// maxTestRSS bounds this package's test binary, which shares the machine
// with the other packages `go test ./...` runs beside it. The golden
// configs are the largest fixtures (about 1.5 GiB alone) and keep their
// sizes; every bit-identity, wire and merge test uses the smallest K that
// still reaches every level and weight class.
const maxTestRSS = 2 << 30

func TestMain(m *testing.M) {
	os.Exit(rssguard.Main(m, maxTestRSS, "a test's fixture outgrew it; pass a small K (or RecoveryK/RoughK) instead of the eps default"))
}

package main

import (
	"os"
	"testing"

	"graphsketch/internal/rssguard"
)

// maxTestRSS bounds the test binary's peak resident set. The failure matrix
// runs its site servers in process, one at a time; a site bundle at the
// default n = 96 is 224 MB resident, and a killed server left reachable
// would put a second generation beside it.
const maxTestRSS = 2 << 30

func TestMain(m *testing.M) {
	os.Exit(rssguard.Main(m, maxTestRSS, "a sim keeps killed servers' bundles reachable, or runs sites side by side"))
}

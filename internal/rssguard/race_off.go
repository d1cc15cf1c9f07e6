//go:build !race

package rssguard

const raceEnabled = false

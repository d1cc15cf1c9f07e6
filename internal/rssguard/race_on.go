//go:build race

package rssguard

const raceEnabled = true

//go:build race

package penvelope

const raceEnabled = true

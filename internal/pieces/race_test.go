//go:build race

package pieces

const raceEnabled = true

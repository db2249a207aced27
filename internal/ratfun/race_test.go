//go:build race

package ratfun_test

const raceEnabled = true

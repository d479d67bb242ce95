//go:build !race

package engine

// raceEnabled is false in plain builds; see race_on_test.go.
const raceEnabled = false

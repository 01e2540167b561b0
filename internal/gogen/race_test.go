//go:build race

package gogen

// raceEnabled reports a -race test binary: the generated programs it builds
// are then race-detector builds too.
const raceEnabled = true

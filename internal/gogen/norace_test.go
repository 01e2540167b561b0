//go:build !race

package gogen

const raceEnabled = false

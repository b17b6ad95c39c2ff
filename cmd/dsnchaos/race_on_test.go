//go:build race

package main

// The golden cases run full chaos campaigns; under the race detector's
// slowdown they blow the test timeout without adding coverage, so they
// skip (CI runs them in its step without -race).
const raceDetectorEnabled = true

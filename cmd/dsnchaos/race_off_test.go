//go:build !race

package main

const raceDetectorEnabled = false

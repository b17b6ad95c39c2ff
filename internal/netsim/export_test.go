package netsim

// RaceDetectorEnabled lets the external test package skip what the race
// detector distorts.
const RaceDetectorEnabled = raceDetectorEnabled

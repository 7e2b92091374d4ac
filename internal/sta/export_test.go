package sta

// RaceMode exposes raceMode to the external sta_test package.
const RaceMode = raceMode

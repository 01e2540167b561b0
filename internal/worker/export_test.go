package worker

// MaxResident exposes the runner's resident-artifact bound to the
// external tests.
const MaxResident = maxResident

package server

// Test helpers shared with the external server_test package, whose
// tests drive a Server through the fleet front door (an import the
// internal test package cannot make without a cycle).
var (
	EndpointCases = endpointCases
	BenchRequest  = benchRequest
)

package ip

// The test-only scan model and its comparison, for the external test package,
// which — unlike package ip and its internal tests — may import rib for fuzz
// seeds.
type ScanModel = scanModel

var (
	CheckAgainstScan = checkAgainstScan
	CheckNewTable    = checkNewTable
	ScanLookup       = scanLookup
)

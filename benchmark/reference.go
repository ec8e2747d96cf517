package main

// referenceDigests are the digestHash values of each workload at
// registry size (scale 1) on seed 1 in the lit configuration. The
// simulator is deterministic and its observers and event core must not
// change simulated results, so a mismatch means the model changed.
// Update an entry only together with a deliberate model change.
var referenceDigests = map[string]string{
	"cpu-gang":    "196487724b2dbd98",
	"mem-thrash":  "70a62b76877a3d3f",
	"disk-copy":   "32628c398036ab1a",
	"tenants-slo": "d0d0f6455eeea152",
}

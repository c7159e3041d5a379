package trace

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"

	"squeezy/internal/sim"
)

// TestCSVEventsRoundTrip: a fleet stream written to the events layout
// parses back, row by row, into the materialized merged fleet trace.
func TestCSVEventsRoundTrip(t *testing.T) {
	cfg := FleetConfig{Funcs: 8, Duration: 2 * sim.Minute, TotalBaseRPS: 4, TotalBurstRPS: 20}
	var buf bytes.Buffer
	n, err := WriteCSV(&buf, NewFleetStream(11, cfg))
	if err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	want := Merge(GenFleet(11, cfg))
	if n != len(want) {
		t.Fatalf("wrote %d rows, want %d", n, len(want))
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("parsing CSV: %v", err)
	}
	if len(recs) != len(want)+1 || recs[0][0] != "func" || recs[0][1] != "t_ns" {
		t.Fatalf("got %d records with header %q, want %d rows under \"func,t_ns\"", len(recs), recs[0], len(want))
	}
	for i, inv := range want {
		if got := recs[i+1]; got[0] != strconv.Itoa(inv.Func) || got[1] != strconv.FormatInt(int64(inv.T), 10) {
			t.Fatalf("row %d: %q, want %+v", i, got, inv)
		}
	}
}

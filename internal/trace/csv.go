package trace

import (
	"encoding/csv"
	"io"
	"strconv"
)

// WriteCSV drains a stream into the events CSV layout
// ("func,t_ns", one row per invocation with its absolute nanosecond
// timestamp, in the stream's (time, func) order) and returns the number
// of invocations written. It is the exact-replay format of
// tracegen -events, and streams row by row in O(1) memory.
func WriteCSV(w io.Writer, s Stream) (int, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"func", "t_ns"}); err != nil {
		return 0, err
	}
	n := 0
	rec := make([]string, 2)
	for {
		inv, ok := s.Next()
		if !ok {
			break
		}
		rec[0] = strconv.Itoa(inv.Func)
		rec[1] = strconv.FormatInt(int64(inv.T), 10)
		if err := cw.Write(rec); err != nil {
			return n, err
		}
		n++
	}
	cw.Flush()
	return n, cw.Error()
}

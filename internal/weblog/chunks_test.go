package weblog

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// chunkRun streams in through StreamCLFChunks and reports how many
// workers it started and how many records they were handed.
func chunkRun(t *testing.T, in string, workers, chunkBytes int) (started, records int, stats StreamStats, err error) {
	t.Helper()
	var counts []*int
	stats, _, err = StreamCLFChunks(context.Background(), strings.NewReader(in), workers, chunkBytes, func() func(StreamRecord) {
		n := new(int)
		counts = append(counts, n)
		return func(StreamRecord) { *n++ }
	})
	for _, n := range counts {
		records += *n
	}
	return len(counts), records, stats, err
}

func TestStreamCLFChunksWorkers(t *testing.T) {
	line := "1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] \"GET /a HTTP/1.0\" 200 10\n"
	cases := []struct {
		name        string
		in          string
		chunkBytes  int
		wantWorkers int
	}{
		{"empty", "", 1 << 10, 1},
		{"one-chunk", strings.Repeat(line, 10), 1 << 10, 1},
		{"exactly-one-chunk", strings.Repeat(line, 16), 16 * len(line), 1},
		{"two-chunks", strings.Repeat(line, 17), 16 * len(line), 2},
		{"many-chunks", strings.Repeat(line, 100), len(line), 4},
		// The latest instant twice, in two zones and two chunks: End is
		// its first occurrence, as in one pass.
		{"latest-twice", line + strings.Replace(line, "06:15:04 +0000", "07:15:04 +0100", 1), len(line), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := StreamCLF(strings.NewReader(tc.in), func(StreamRecord) bool { return true })
			if err != nil {
				t.Fatal(err)
			}
			started, records, stats, err := chunkRun(t, tc.in, 4, tc.chunkBytes)
			if err != nil {
				t.Fatal(err)
			}
			if started != tc.wantWorkers {
				t.Errorf("started %d workers, want %d", started, tc.wantWorkers)
			}
			if records != want.Records || fmt.Sprint(stats) != fmt.Sprint(want) {
				t.Errorf("delivered %d records, stats %+v; want %+v", records, stats, want)
			}
		})
	}
}

func TestStreamCLFChunksAgentLimitIsGlobal(t *testing.T) {
	// 40,000 distinct agents in each half of the stream: neither worker
	// passes the limit alone, together they do, and the error names the
	// line a single pass stops on.
	var b strings.Builder
	for i := 0; i < 80000; i++ {
		fmt.Fprintf(&b, "1.2.3.4 - - [13/Feb/1998:06:15:04 +0000] \"GET /a HTTP/1.0\" 200 10 \"-\" \"UA-%d\"\n", i)
	}
	in := b.String()
	_, want := StreamCLF(strings.NewReader(in), func(StreamRecord) bool { return true })
	if want == nil {
		t.Fatal("a single pass must refuse the 65,536th agent")
	}
	started, _, _, got := chunkRun(t, in, 2, len(in)/2+1)
	if started != 2 {
		t.Fatalf("started %d workers, want 2", started)
	}
	if got == nil || got.Error() != want.Error() {
		t.Fatalf("error %v, want %v", got, want)
	}
}

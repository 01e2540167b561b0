package lexer_test

import (
	"testing"

	"repro/internal/lexer"
	"repro/internal/parity"
	"repro/internal/token"
)

// BenchmarkLex scans the golden corpus once per iteration and reports the
// cost per token.
func BenchmarkLex(b *testing.B) {
	corpus := parity.Corpus(b)
	tokens := 0
	for _, c := range corpus {
		toks, err := lexer.Tokens(c.File, c.Src)
		if err != nil {
			b.Fatal(err)
		}
		tokens += len(toks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range corpus {
			sink, _ = lexer.Tokens(c.File, c.Src)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tokens), "ns/token")
}

var sink []token.Token

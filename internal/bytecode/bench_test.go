package bytecode_test

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/bytecode"
	"repro/internal/check"
	"repro/internal/lexer"
	"repro/internal/parity"
	"repro/internal/parser"
)

var sink *bytecode.Program

// BenchmarkCompile compiles the checked golden corpus and optimizes it at
// -O2 once per iteration, and reports the cost per source token. Parsing
// and checking are outside the timed loop: Compile only reads the AST, so
// one checked AST serves every iteration.
func BenchmarkCompile(b *testing.B) {
	var progs []*ast.Program
	tokens := 0
	for _, c := range parity.Corpus(b) {
		toks, err := lexer.Tokens(c.File, c.Src)
		if err != nil {
			b.Fatal(err)
		}
		tokens += len(toks)
		prog, err := parser.Parse(c.File, c.Src)
		if err != nil {
			b.Fatal(err)
		}
		if err := check.Check(prog); err != nil {
			b.Fatal(err)
		}
		progs = append(progs, prog)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, prog := range progs {
			bc, err := bytecode.Compile(prog)
			if err != nil {
				b.Fatal(err)
			}
			sink = bytecode.Optimize(bc, bytecode.O2)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tokens), "ns/token")
}

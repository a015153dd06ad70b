package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden from a full figures pass")

// TestUpdateGolden captures the golden file. It runs a full figures pass
// (several seconds), so it only runs with -update.
func TestUpdateGolden(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite the golden file")
	}
	p, err := figuresPass(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/figures.golden", []byte(passDigest(p)), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGoldenHasEveryOperation(t *testing.T) {
	g := parseGolden(figuresGolden)
	for _, op := range figOpNames {
		if strings.TrimSpace(g[op]) == "" {
			t.Errorf("golden has no rows for %s", op)
		}
	}
}

// TestGoldenMatchesItself: the unperturbed golden passes the comparison.
func TestGoldenMatchesItself(t *testing.T) {
	g := parseGolden(figuresGolden)
	for op, rows := range g {
		if err := compareGolden(g, op, rows); err != nil {
			t.Errorf("%s: %v", op, err)
		}
	}
}

// TestGoldenRejectsOnePerturbedRow changes one digit of one row of each
// operation and expects the comparison to fail on exactly that line.
func TestGoldenRejectsOnePerturbedRow(t *testing.T) {
	g := parseGolden(figuresGolden)
	for op, rows := range g {
		lines := strings.Split(strings.TrimSuffix(rows, "\n"), "\n")
		row := len(lines) / 2
		i := strings.IndexAny(lines[row], "123456789")
		if i < 0 {
			t.Fatalf("%s: row %d has no digit to perturb", op, row+1)
		}
		b := []byte(lines[row])
		if b[i] == '9' {
			b[i] = '8'
		} else {
			b[i]++
		}
		lines[row] = string(b)
		err := compareGolden(g, op, strings.Join(lines, "\n")+"\n")
		if err == nil {
			t.Fatalf("%s: perturbed row %d passed the golden comparison", op, row+1)
		}
		if !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: error does not name the line: %v", op, err)
		}
	}
	if err := compareGolden(g, "no-such-op", ""); err == nil {
		t.Error("an operation without a golden section passed")
	}
}

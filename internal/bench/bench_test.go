package bench

import (
	"strings"
	"testing"

	"paradigms/internal/tpch"
)

// The experiment text generators are exercised at tiny scale: they must
// run to completion and contain the expected structural markers.

func tinyCfg() Config { return Config{SF: 0.01, SSBSF: 0.01, Threads: 2, Reps: 1} }

func TestFig3Text(t *testing.T) {
	db := tpch.Generate(0.01, 0)
	out := Fig3(db, tinyCfg())
	for _, want := range []string{"Figure 3", "Q1", "Q18", "Typer", "Tectorwise"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig3 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Text(t *testing.T) {
	db := tpch.Generate(0.01, 0)
	out := Table1Text(db)
	if strings.Count(out, "typer/") != 5 || strings.Count(out, "tectorwise/") != 5 {
		t.Errorf("Table1 should have 5 rows per engine:\n%s", out)
	}
}

func TestSSBText(t *testing.T) {
	db := SSBGen(0.01)
	out := SSBText(db, tinyCfg())
	for _, q := range []string{"Q1.1", "Q2.1", "Q3.1", "Q4.1"} {
		if !strings.Contains(out, q) {
			t.Errorf("SSB output missing %s", q)
		}
	}
}

func TestTable2And5Text(t *testing.T) {
	db := tpch.Generate(0.01, 0)
	if out := Table2Text(db, tinyCfg()); !strings.Contains(out, "HyPer") {
		t.Errorf("Table2 missing production systems:\n%s", out)
	}
	if out := Table5Text(db, "", tinyCfg()); !strings.Contains(out, "SSD") {
		t.Errorf("Table5 missing SSD header:\n%s", out)
	}
}

func TestFigTexts(t *testing.T) {
	db := tpch.Generate(0.01, 0)
	cfg := tinyCfg()
	if out := Fig6Text(cfg); !strings.Contains(out, "dense") {
		t.Error("Fig6 output malformed")
	}
	if out := Fig7Text(); !strings.Contains(out, "input sel") {
		t.Error("Fig7 output malformed")
	}
	if out := Fig8Text(db, cfg); !strings.Contains(out, "hashing") {
		t.Error("Fig8 output malformed")
	}
	if out := Fig9Text(cfg, 512<<10); !strings.Contains(out, "bitmap") {
		t.Error("Fig9 output malformed")
	}
	if out := Fig10Text(db); !strings.Contains(out, "instr reduction") {
		t.Error("Fig10 output malformed")
	}
	if out := Table4Text(); !strings.Contains(out, "Skylake") {
		t.Error("Table4 output malformed")
	}
	if out := Table6Text(); !strings.Contains(out, "HyPer") {
		t.Error("Table6 output malformed")
	}
	if out := EC2Text(); !strings.Contains(out, "m5.2xlarge") {
		t.Error("EC2 output malformed")
	}
}

func TestExtrasTexts(t *testing.T) {
	db := tpch.Generate(0.01, 0)
	cfg := tinyCfg()
	if out := ProfilingText(db, cfg); !strings.Contains(out, "breakdown") {
		t.Errorf("Profiling output malformed:\n%s", out)
	}
	if out := AdaptivityText(db, cfg); !strings.Contains(out, "ordered aggregation") {
		t.Error("Adaptivity output malformed")
	}
	if out := Table3Text(db, []int{1, 2}, cfg); !strings.Contains(out, "ratio") {
		t.Error("Table3 output malformed")
	}
}

func TestPaperReferenceTablesComplete(t *testing.T) {
	for _, q := range []string{"Q1", "Q6", "Q3", "Q9", "Q18"} {
		if _, ok := PaperFig3[q]; !ok {
			t.Errorf("PaperFig3 missing %s", q)
		}
		if _, ok := PaperTable2[q]; !ok {
			t.Errorf("PaperTable2 missing %s", q)
		}
		if _, ok := PaperTable3[q]; !ok {
			t.Errorf("PaperTable3 missing %s", q)
		}
		if _, ok := PaperTable5[q]; !ok {
			t.Errorf("PaperTable5 missing %s", q)
		}
		for _, eng := range []string{"typer", "tectorwise"} {
			if _, ok := PaperTable1[eng+"/"+q]; !ok {
				t.Errorf("PaperTable1 missing %s/%s", eng, q)
			}
		}
	}
	for _, q := range []string{"Q1.1", "Q2.1", "Q3.1", "Q4.1"} {
		for _, eng := range []string{"typer", "tectorwise"} {
			if _, ok := PaperSSBTable[eng+"/"+q]; !ok {
				t.Errorf("PaperSSBTable missing %s/%s", eng, q)
			}
		}
	}
}

func TestExperimentNamesSorted(t *testing.T) {
	names := SortedExperimentNames()
	if len(names) < 20 {
		t.Errorf("only %d experiments registered", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Errorf("names not sorted at %d", i)
		}
	}
}

package sparse

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.0
2 2 3.0
3 3 4.0
1 3 -1.5
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 3 || a.Cols != 3 || a.NNZ() != 4 {
		t.Fatalf("dims %dx%d nnz %d", a.Rows, a.Cols, a.NNZ())
	}
	if a.At(0, 2) != -1.5 || a.At(1, 1) != 3 {
		t.Fatal("wrong entries")
	}
}

func TestReadMatrixMarketSymmetricExpands(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
2 2 2
1 1 2.0
2 1 -1.0
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Fatal("symmetric storage not expanded")
	}
	if a.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", a.NNZ())
	}
}

func TestReadMatrixMarketPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	a, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 1 || a.At(1, 1) != 1 {
		t.Fatal("pattern entries must be 1")
	}
}

func TestReadMatrixMarketRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"not a header\n1 1 0\n",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n",             // missing entry
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n",    // 0-based entry
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n",    // row beyond rows
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 3 1.0\n",    // column beyond cols
		"%%MatrixMarket matrix coordinate real symmetric\n3 2 1\n3 1 1.0\n",  // non-square symmetric
		"%%MatrixMarket matrix coordinate real general\n-2 2 0\n",            // negative size
		"%%MatrixMarket matrix coordinate real general\n1000000000000 1 0\n", // size beyond the limit
	} {
		if _, err := ReadMatrixMarket(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q must be rejected", in)
		}
	}
}

func TestWriteReadRoundTripGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomCSR(rng, 9, 7, 0.3) // rectangular → general storage
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != b.NNZ() || a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("round trip changed shape: %dx%d/%d vs %dx%d/%d",
			a.Rows, a.Cols, a.NNZ(), b.Rows, b.Cols, b.NNZ())
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("(%d,%d): %g vs %g", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

func TestWriteReadRoundTripSymmetric(t *testing.T) {
	a := buildSmall(t)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "symmetric") {
		t.Fatal("symmetric matrix should be written in symmetric storage")
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("(%d,%d): %g vs %g", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
}

// FuzzReadMatrixMarket feeds arbitrary bytes to the reader: it must either
// return an error or a structurally valid CSR — monotone RowPtr spanning
// every entry, sorted in-range columns, and a square shape for symmetric
// storage. The seed corpus in testdata/fuzz holds the general, symmetric
// and pattern samples plus the malformed inputs that once panicked.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		a, err := ReadMatrixMarket(bytes.NewReader(in))
		if err != nil {
			return
		}
		if len(a.RowPtr) != a.Rows+1 || a.RowPtr[0] != 0 || a.RowPtr[a.Rows] != len(a.ColIdx) || len(a.Val) != len(a.ColIdx) {
			t.Fatalf("%dx%d: RowPtr len %d [0]=%d, %d cols, %d vals",
				a.Rows, a.Cols, len(a.RowPtr), a.RowPtr[0], len(a.ColIdx), len(a.Val))
		}
		for i := 0; i < a.Rows; i++ {
			if a.RowPtr[i] > a.RowPtr[i+1] {
				t.Fatalf("RowPtr not monotone at row %d", i)
			}
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if j := a.ColIdx[k]; j < 0 || j >= a.Cols || (k > a.RowPtr[i] && j <= a.ColIdx[k-1]) {
					t.Fatalf("row %d: column %d out of [0,%d) or unsorted", i, j, a.Cols)
				}
			}
		}
		header := strings.Fields(strings.ToLower(strings.SplitN(string(in), "\n", 2)[0]))
		if len(header) >= 5 && header[4] != "general" && a.Rows != a.Cols {
			t.Fatalf("%s storage produced a %dx%d matrix", header[4], a.Rows, a.Cols)
		}
	})
}

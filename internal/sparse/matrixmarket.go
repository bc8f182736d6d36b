package sparse

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Matrix Market coordinate-format I/O, covering the subset used by the
// SuiteSparse collection matrices the paper evaluates on: real or pattern
// entries, general or symmetric storage. Writing always emits
// "coordinate real", using symmetric storage when the matrix is symmetric.

// maxMatrixMarketDim bounds the row and column counts a size line may
// declare. Building the CSR allocates O(rows) before any entry is read, so
// without a bound a few bytes of header could demand terabytes and abort
// the process; 2^24 is ~18× the largest matrix the paper evaluates.
const maxMatrixMarketDim = 1 << 24

// ReadMatrixMarket parses a Matrix Market "matrix coordinate" stream.
// Symmetric (and skew-symmetric) storage is expanded to full storage;
// pattern entries get value 1.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("sparse: not a MatrixMarket matrix header: %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("sparse: only coordinate format supported, got %q", header[2])
	}
	field := header[3]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("sparse: unsupported field type %q", field)
	}
	symmetry := "general"
	if len(header) >= 5 {
		symmetry = header[4]
	}
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("sparse: unsupported symmetry %q", symmetry)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("sparse: missing MatrixMarket size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("sparse: bad size line %q: %v", line, err)
		}
		break
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("sparse: negative MatrixMarket size %d %d %d", rows, cols, nnz)
	}
	if rows > maxMatrixMarketDim || cols > maxMatrixMarketDim {
		return nil, fmt.Errorf("sparse: MatrixMarket size %dx%d exceeds the %d-row/column limit", rows, cols, maxMatrixMarketDim)
	}
	if symmetry != "general" && rows != cols {
		return nil, fmt.Errorf("sparse: %s storage needs a square matrix, got %dx%d", symmetry, rows, cols)
	}

	b := NewBuilder(rows, cols)
	read := 0
	for read < nnz {
		if !sc.Scan() {
			return nil, fmt.Errorf("sparse: expected %d entries, got %d", nnz, read)
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("sparse: bad entry line %q", line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad row index %q: %v", f[0], err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad column index %q: %v", f[1], err)
		}
		v := 1.0
		if field != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("sparse: missing value in %q", line)
			}
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad value %q: %v", f[2], err)
			}
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside the 1-based %dx%d matrix", i, j, rows, cols)
		}
		i, j = i-1, j-1 // 1-based on disk
		b.Add(i, j, v)
		if i != j {
			switch symmetry {
			case "symmetric":
				b.Add(j, i, v)
			case "skew-symmetric":
				b.Add(j, i, -v)
			}
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// WriteMatrixMarket writes a in coordinate real format. If a is numerically
// symmetric, only the lower triangle is written with "symmetric" storage.
func WriteMatrixMarket(w io.Writer, a *CSR) error {
	bw := bufio.NewWriter(w)
	sym := a.IsSymmetric(0)
	storage := "general"
	nnz := a.NNZ()
	if sym {
		storage = "symmetric"
		nnz = 0
		for i := 0; i < a.Rows; i++ {
			cols, _ := a.Row(i)
			for _, j := range cols {
				if j <= i {
					nnz++
				}
			}
		}
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real %s\n", storage); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.Rows, a.Cols, nnz); err != nil {
		return err
	}
	for i := 0; i < a.Rows; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if sym && j > i {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

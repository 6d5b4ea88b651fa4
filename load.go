package idaax

import (
	"fmt"
	"io"
	"time"

	"idaax/internal/catalog"
	"idaax/internal/loader"
	"idaax/internal/types"
)

// LoadOptions configure bulk ingestion through the loader component.
type LoadOptions struct {
	// Format selects the input format: "csv" (default) or "jsonl".
	Format string
	// HasHeader skips the first CSV record.
	HasHeader bool
	// MapByHeader matches CSV columns to table columns by header name.
	MapByHeader bool
	// Delimiter is the CSV field separator (default ',').
	Delimiter rune
	// NullToken is the literal treated as NULL (default "").
	NullToken string
	// BatchSize is the number of rows per insert batch (default 5000).
	BatchSize int
	// SkipMalformed skips unparsable records instead of failing the load.
	SkipMalformed bool
	// User is the authorization id performing the load (default SYSADM); it
	// needs INSERT privilege on the target table.
	User string
}

// LoadReport summarises one bulk load.
type LoadReport struct {
	Table       string
	RowsRead    int
	RowsLoaded  int
	RowsSkipped int
	Batches     int
	Elapsed     time.Duration
	// LoadedInto reports where the data landed: "ACCELERATOR" for
	// accelerator-only targets (the data never touches DB2), "DB2" otherwise.
	LoadedInto string
}

// Load ingests external data from r into the named table. Accelerator-only
// target tables receive the data directly on the accelerator — the loader path
// the paper describes for enriching analytics with non-mainframe data (e.g.
// social media extracts). Regular and accelerated tables are loaded through
// DB2 (and flow to the accelerator via replication as usual).
func (s *System) Load(table string, r io.Reader, opts LoadOptions) (*LoadReport, error) {
	table = normalize(table)
	meta, err := s.coord.Catalog().Table(table)
	if err != nil {
		return nil, err
	}
	user := opts.User
	if user == "" {
		user = catalog.AdminUser
	}

	l := loader.New(loader.Options{
		BatchSize:     opts.BatchSize,
		HasHeader:     opts.HasHeader,
		MapByHeader:   opts.MapByHeader,
		Delimiter:     opts.Delimiter,
		NullToken:     opts.NullToken,
		SkipMalformed: opts.SkipMalformed,
	})
	sink := func(rows []types.Row) (int, error) {
		return s.coord.BulkInsert(user, table, rows)
	}

	var rep *loader.Report
	switch opts.Format {
	case "", "csv", "CSV":
		rep, err = l.LoadCSV(r, meta.Schema, sink)
	case "jsonl", "JSONL", "json", "JSON":
		rep, err = l.LoadJSONLines(r, meta.Schema, sink)
	default:
		return nil, fmt.Errorf("idaax: unsupported load format %q", opts.Format)
	}
	if err != nil {
		return nil, err
	}
	loadedInto := "DB2"
	if meta.Kind.String() == "ACCELERATOR-ONLY" {
		loadedInto = "ACCELERATOR"
	}
	return &LoadReport{
		Table:       table,
		RowsRead:    rep.RowsRead,
		RowsLoaded:  rep.RowsLoaded,
		RowsSkipped: rep.RowsSkipped,
		Batches:     rep.Batches,
		Elapsed:     rep.Elapsed,
		LoadedInto:  loadedInto,
	}, nil
}

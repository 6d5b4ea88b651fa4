package main

import (
	"bytes"
	"strconv"
)

// scale fixes every size the benchmark depends on. fullScale is the
// benchmark; tinyScale exists only so the smoke test fits in seconds.
type scale struct {
	customers int // rows of CUSTOMERS
	// pointCustomers is CUSTOMERS' size for point_lookup alone. A pruned read
	// still scans a whole zone-map block of its shard with a visibility check
	// per row (~40 ns each): at 20 000 customers that is 4 096 rows and
	// colstore is over half of the request. point_lookup exists to measure the
	// layers around execution, so its table is sized until execution is a
	// minor share (the issue's resize rule); the README records it.
	pointCustomers int
	orders         int // rows of ORDERS
	products       int // rows of PRODUCTS
	wideRows       int // rows one wide_result statement returns

	eltBatches   int // INSERT ... VALUES statements per ELT cycle
	eltBatchRows int // rows per such statement
	eltKeys      int // customer-id domain of the ingested rows

	// Sizes of the traced pass's fixed single-client sample.
	ladderPoint  int // point + range statements
	ladderClass  int // statements per analytic_mix class
	ladderWide   int // wide statements
	ladderCycles int // ELT cycles
}

var fullScale = scale{
	customers: 20000, pointCustomers: 600, orders: 400000, products: 50, wideRows: 10000,
	eltBatches: 100, eltBatchRows: 500, eltKeys: 8000,
	ladderPoint: 500, ladderClass: 10, ladderWide: 30, ladderCycles: 3,
}

var tinyScale = scale{
	customers: 2000, pointCustomers: 300, orders: 20000, products: 50, wideRows: 500,
	eltBatches: 4, eltBatchRows: 100, eltKeys: 200,
	ladderPoint: 20, ladderClass: 2, ladderWide: 2, ladderCycles: 1,
}

var (
	segments   = []string{"consumer", "smb", "enterprise", "public", "startup"}
	regions    = []string{"EU", "US", "APAC", "LATAM"}
	categories = []string{"books", "games", "garden", "tools", "toys", "audio", "video", "food"}
)

const (
	ddlCustomers = "CREATE TABLE customers (customer_id BIGINT NOT NULL, segment VARCHAR(16), age BIGINT, income DOUBLE) IN ACCELERATOR SHARDS DISTRIBUTE BY HASH(customer_id)"
	ddlOrders    = "CREATE TABLE orders (id BIGINT NOT NULL, customer_id BIGINT NOT NULL, amount DOUBLE, qty BIGINT, region VARCHAR(8), product_id BIGINT) IN ACCELERATOR SHARDS DISTRIBUTE BY HASH(customer_id)"
	ddlProducts  = "CREATE TABLE products (product_id BIGINT NOT NULL, category VARCHAR(16), price DOUBLE) IN ACCELERATOR SHARDS DISTRIBUTE BY HASH(product_id)"
)

// mix is splitmix64 over (seed, stream, i): every generated row is a pure
// function of its key, so the oracle recomputes any row it wants to check
// without keeping the data set around.
func mix(seed int64, stream, i uint64) uint64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + stream*0xBF58476D1CE4E5B9 + i + 0x94D049BB133111EB
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

const (
	streamCustomers = iota + 1
	streamOrders
	streamProducts
	streamELT
	streamClient
)

type customer struct {
	segment string
	age     int64
	income  float64 // two decimals
}

func customerRow(seed int64, id int) customer {
	h := mix(seed, streamCustomers, uint64(id))
	return customer{
		segment: segments[h%5],
		age:     18 + int64((h>>8)%60),
		income:  float64(2000000+(h>>16)%10000000) / 100,
	}
}

type order struct {
	customerID int64
	amount     float64 // two decimals, [0, 500)
	qty        int64   // 1..10
	region     string
	productID  int64
}

func orderRow(seed int64, sc scale, id int) order {
	h := mix(seed, streamOrders, uint64(id))
	return order{
		customerID: int64(h % uint64(sc.customers)),
		amount:     float64((h>>20)%50000) / 100,
		qty:        1 + int64((h>>36)%10),
		region:     regions[(h>>40)%4],
		productID:  int64((h >> 44) % uint64(sc.products)),
	}
}

// renderFloat matches how the system renders a DOUBLE on the wire.
func renderFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func appendMoney(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'f', 2, 64) }

// customersCSV, ordersCSV and productsCSV render the set-up data in key order
// (so the zone maps of the key columns are prunable) for System.Load.
func customersCSV(seed int64, sc scale) *bytes.Buffer {
	var b []byte
	for id := 0; id < sc.customers; id++ {
		c := customerRow(seed, id)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ',')
		b = append(b, c.segment...)
		b = append(b, ',')
		b = strconv.AppendInt(b, c.age, 10)
		b = append(b, ',')
		b = appendMoney(b, c.income)
		b = append(b, '\n')
	}
	return bytes.NewBuffer(b)
}

func ordersCSV(seed int64, sc scale) *bytes.Buffer {
	var b []byte
	for id := 0; id < sc.orders; id++ {
		o := orderRow(seed, sc, id)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, o.customerID, 10)
		b = append(b, ',')
		b = appendMoney(b, o.amount)
		b = append(b, ',')
		b = strconv.AppendInt(b, o.qty, 10)
		b = append(b, ',')
		b = append(b, o.region...)
		b = append(b, ',')
		b = strconv.AppendInt(b, o.productID, 10)
		b = append(b, '\n')
	}
	return bytes.NewBuffer(b)
}

func productsCSV(seed int64, sc scale) *bytes.Buffer {
	var b []byte
	for id := 0; id < sc.products; id++ {
		h := mix(seed, streamProducts, uint64(id))
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, ',')
		b = append(b, categories[id%len(categories)]...)
		b = append(b, ',')
		b = appendMoney(b, float64(100+h%9900)/100)
		b = append(b, '\n')
	}
	return bytes.NewBuffer(b)
}

// eltRow is one ingested row of an ELT cycle: a pure function of
// (seed, tenant, cycle, i), so the stream predicts every stage's row count
// while it renders the INSERT statements.
type eltRow struct {
	customerID int64
	amount     float64
	qty        int64
	region     string
}

func eltRowAt(seed int64, sc scale, tenant, cycle, i int) eltRow {
	h := mix(seed, streamELT+uint64(tenant)<<8, uint64(cycle)<<32|uint64(i))
	return eltRow{
		customerID: int64(h % uint64(sc.eltKeys)),
		amount:     float64((h>>20)%50000) / 100,
		qty:        1 + int64((h>>36)%10),
		region:     regions[(h>>40)%4],
	}
}

// Stage 1 of the ELT flow keeps a row when both hold.
const (
	eltMinAmount = 50
	eltMinQty    = 2
)

func (r eltRow) passesStage1() bool { return r.amount > eltMinAmount && r.qty >= eltMinQty }

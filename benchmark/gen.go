package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/workload"
)

// Everything the server is sent derives from -seed through the
// functions in this file; the server never sees the seed itself.

const (
	mapSide = workload.DefaultMapSide
	anonK   = 50
	// maxMoveMeters stays under the server's 200 m motion bound: the
	// bound is checked on float distances against integer coordinates,
	// so a 200 m draw can round to 201 m and be rejected.
	maxMoveMeters = 190
)

var categories = [...]string{"gas", "food", "bank", "shop"}

// Separate streams per input kind, so changing how many requests a run
// draws does not shift its POIs or moves.
const (
	streamUsers int64 = iota
	streamPOIs
	streamRequests
	streamRadii
	streamMoves
	streamProbe
)

func newRNG(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

func bounds() geo.Rect { return workload.MapBounds(mapSide) }

// masterSeed fixes the Master set. Section VI draws every smaller
// location database as a uniform sample of one Master set; doing the
// same keeps the spatial structure (where the cores and corridors lie,
// hence tree depth and DP cost) the same for every -seed, which then
// decides who is sampled and everything that is asked of them.
const masterSeed = 42

// genUsers draws n users from the Master set sz names: the paper's
// dataset substitute (ten users per intersection, sigma 500 m, on the
// 2^17 m map), sampled uniformly by the seed. The Master's SHA-256 is
// pinned in sz, so a change to internal/workload cannot silently change
// what the benchmark measures: the harness refuses to run on a Master
// that hashes differently.
func genUsers(sz sizes, n int, seed int64) (*location.DB, error) {
	master := workload.Generate(workload.Config{Intersections: sz.MasterIntersections}, masterSeed)
	if got := fingerprint(master); got != sz.MasterSHA256 {
		return nil, fmt.Errorf("Master set of %d intersections has SHA-256 %s, the benchmark was defined on %s: internal/workload changed",
			sz.MasterIntersections, got, sz.MasterSHA256)
	}
	return master.Sample(newRNG(seed, streamUsers), n)
}

// fingerprint is the SHA-256 over the generated records in order.
func fingerprint(db *location.DB) string {
	h := sha256.New()
	var b [8]byte
	for _, r := range db.Records() {
		h.Write([]byte(r.UserID))
		binary.LittleEndian.PutUint32(b[:4], uint32(r.Loc.X))
		binary.LittleEndian.PutUint32(b[4:], uint32(r.Loc.Y))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func genPOIs(n int, seed int64) []lbs.POI {
	rng := newRNG(seed, streamPOIs)
	pois := make([]lbs.POI, n)
	for i := range pois {
		pois[i] = lbs.POI{
			ID:       fmt.Sprintf("p%05d", i),
			Loc:      geo.Point{X: rng.Int31n(mapSide), Y: rng.Int31n(mapSide)},
			Category: categories[rng.Intn(len(categories))],
		}
	}
	return pois
}

// appendUser appends {"id":..,"x":..,"y":..} (also the /v1/request
// prefix with the key spelled "user").
func appendUser(b []byte, key, id string, p geo.Point) []byte {
	b = append(b, `{"`...)
	b = append(b, key...)
	b = append(b, `":"`...)
	b = append(b, id...)
	b = append(b, `","x":`...)
	b = strconv.AppendInt(b, int64(p.X), 10)
	b = append(b, `,"y":`...)
	b = strconv.AppendInt(b, int64(p.Y), 10)
	return b
}

func snapshotBody(db *location.DB) []byte {
	b := make([]byte, 0, 40*db.Len()+64)
	b = append(b, `{"k":`...)
	b = strconv.AppendInt(b, anonK, 10)
	b = append(b, `,"mapSide":`...)
	b = strconv.AppendInt(b, int64(mapSide), 10)
	b = append(b, `,"users":[`...)
	for i, r := range db.Records() {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendUser(b, "id", r.UserID, r.Loc)
		b = append(b, '}')
	}
	return append(b, `]}`...)
}

func poisBody(pois []lbs.POI) []byte {
	b := make([]byte, 0, 64*len(pois)+64)
	b = append(b, `{"mapSide":`...)
	b = strconv.AppendInt(b, int64(mapSide), 10)
	b = append(b, `,"pois":[`...)
	for i, p := range pois {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendUser(b, "id", p.ID, p.Loc)
		b = append(b, `,"category":"`...)
		b = append(b, p.Category...)
		b = append(b, `"}`...)
	}
	return append(b, `]}`...)
}

// nnRequest is a nearest-neighbour /v1/request body for one user.
func nnRequest(b []byte, r location.Record, category string) []byte {
	b = appendUser(b, "user", r.UserID, r.Loc)
	b = append(b, `,"params":[{"name":"cat","value":"`...)
	b = append(b, category...)
	return append(b, `"}]}`...)
}

// rangeRequest is a range-query item whose radius no earlier item used:
// a seeded base radius plus a per-item fraction, so the (cloak, params)
// cache key never repeats and every item is a CSP miss.
func rangeRequest(b []byte, r location.Record, category string, radius rangeRadius) []byte {
	b = appendUser(b, "user", r.UserID, r.Loc)
	b = append(b, `,"params":[{"name":"cat","value":"`...)
	b = append(b, category...)
	b = append(b, `"},{"name":"range","value":"`...)
	b = radius.append(b)
	return append(b, `"}]}`...)
}

// rangeRadius is base + serial/10^7 meters, printed exactly.
type rangeRadius struct {
	base   int
	serial int
}

func (r rangeRadius) append(b []byte) []byte {
	b = strconv.AppendInt(b, int64(r.base), 10)
	b = append(b, '.')
	s := strconv.Itoa(r.serial)
	for i := len(s); i < 7; i++ {
		b = append(b, '0')
	}
	return append(b, s...)
}

// meters parses the printed form, as the provider does, so the oracle
// and the server square the same float.
func (r rangeRadius) meters() float64 {
	v, _ := strconv.ParseFloat(string(r.append(nil)), 64) // digits and one dot: cannot fail
	return v
}

// moveTarget displaces p by at most maxMoveMeters in a seeded direction,
// clipped to the map — the 200 m / 10 s movement model of Section VI-C.
func moveTarget(rng *rand.Rand, p geo.Point) geo.Point {
	theta := rng.Float64() * 2 * math.Pi
	dist := rng.Float64() * maxMoveMeters
	clip := func(v float64) int32 {
		if v < 0 {
			return 0
		}
		if v >= float64(mapSide) {
			return mapSide - 1
		}
		return int32(v)
	}
	return geo.Point{X: clip(float64(p.X) + dist*math.Cos(theta)), Y: clip(float64(p.Y) + dist*math.Sin(theta))}
}

package geom

import (
	"bufio"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
)

// projectGoldenFile pins the projection arithmetic itself. The
// equivalence tests compare the grid search with the linear scan, and
// both run the same candidate helper and finisher, so a drift in that
// shared arithmetic moves both sides at once and stays invisible to
// them. The table holds, for every (randomPath seed, query) pair, the
// Float64bits of the station and lateral offset the kernel returned
// when the table was recorded; any change of the float operations or
// their order shows up as a bit mismatch here.
const projectGoldenFile = "testdata/project_golden.txt"

const (
	projectGoldenSeeds   = 40
	projectGoldenQueries = 50
)

// goldenQueries draws the query sequence recorded for one path. It
// mixes a continuous walk (the Projector's warm-start pattern), exact
// vertices (ties between adjacent segments), points just off the grid's
// bounding box, far points, the randomQuery mixture and non-finite
// coordinates.
func goldenQueries(rng *rand.Rand, p *Path, n int) []Vec2 {
	nan, inf := math.NaN(), math.Inf(1)
	nonFinite := []Vec2{
		{nan, nan}, {nan, 0}, {0, nan}, {inf, 0}, {0, -inf},
		{inf, -inf}, {-inf, inf}, {nan, inf},
	}
	box := p.Bounds()
	qs := make([]Vec2, 0, n)
	q := p.PointAt(0)
	for len(qs) < n {
		switch k := rng.Intn(16); {
		case k < 6: // continuous walk
			q = q.Add(V(rng.Float64()*2-1, rng.Float64()*2-1))
		case k < 8: // exactly on a vertex
			q = p.pts[rng.Intn(len(p.pts))]
		case k < 10: // just outside the bounding box
			m := rng.Float64() * 30
			switch rng.Intn(4) {
			case 0:
				q = V(box.Min.X-m, box.Min.Y+rng.Float64()*(box.Max.Y-box.Min.Y))
			case 1:
				q = V(box.Max.X+m, box.Min.Y+rng.Float64()*(box.Max.Y-box.Min.Y))
			case 2:
				q = V(box.Min.X+rng.Float64()*(box.Max.X-box.Min.X), box.Min.Y-m)
			default:
				q = V(box.Min.X+rng.Float64()*(box.Max.X-box.Min.X), box.Max.Y+m)
			}
		case k < 11: // non-finite; the walk restarts on the path
			qs = append(qs, nonFinite[rng.Intn(len(nonFinite))])
			q = p.PointAt(rng.Float64() * p.Length())
			continue
		default:
			q = randomQuery(rng, p)
		}
		qs = append(qs, q)
	}
	return qs
}

type projectGoldenRow struct {
	seed             int64
	q                Vec2
	station, lateral uint64
}

// goldenPath is the path the table's rows for seed were recorded on.
func goldenPath(seed int64) (*Path, *rand.Rand) {
	rng := rand.New(rand.NewSource(7000 + seed))
	return randomPath(rng), rng
}

func readProjectGolden(t *testing.T) []projectGoldenRow {
	t.Helper()
	f, err := os.Open(projectGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var rows []projectGoldenRow
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fs := strings.Fields(text)
		if len(fs) != 5 {
			t.Fatalf("%s:%d: %d fields, want 5", projectGoldenFile, line, len(fs))
		}
		seed, err := strconv.ParseInt(fs[0], 10, 64)
		if err != nil {
			t.Fatalf("%s:%d: %v", projectGoldenFile, line, err)
		}
		var bits [4]uint64
		for i := range bits {
			if bits[i], err = strconv.ParseUint(fs[i+1], 16, 64); err != nil {
				t.Fatalf("%s:%d: %v", projectGoldenFile, line, err)
			}
		}
		rows = append(rows, projectGoldenRow{
			seed:    seed,
			q:       V(math.Float64frombits(bits[0]), math.Float64frombits(bits[1])),
			station: bits[2],
			lateral: bits[3],
		})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestProjectGolden checks Path.Project, a Projector driven through
// each seed's queries in order, and the linear reference scan against
// the recorded bits. The recorded queries must also still be the ones
// goldenQueries draws, so the table keeps covering what it claims to.
func TestProjectGolden(t *testing.T) {
	rows := readProjectGolden(t)
	if want := projectGoldenSeeds * projectGoldenQueries; len(rows) != want {
		t.Fatalf("golden has %d rows, want %d", len(rows), want)
	}
	var p *Path
	var pr *Projector
	var drawn []Vec2
	for i, r := range rows {
		if i%projectGoldenQueries == 0 {
			var rng *rand.Rand
			p, rng = goldenPath(r.seed)
			pr = NewProjector(p)
			drawn = goldenQueries(rng, p, projectGoldenQueries)
		}
		if d := drawn[i%projectGoldenQueries]; r.seed != int64(i/projectGoldenQueries) ||
			math.Float64bits(d.X) != math.Float64bits(r.q.X) || math.Float64bits(d.Y) != math.Float64bits(r.q.Y) {
			t.Fatalf("row %d: recorded (seed %d, q=%v), goldenQueries draws (seed %d, q=%v)",
				i, r.seed, r.q, i/projectGoldenQueries, d)
		}
		s, l := p.Project(r.q)
		ws, wl := pr.Project(r.q)
		_, ls, ll := p.projectLinear(r.q)
		for _, c := range []struct {
			name string
			s, l float64
		}{{"Path.Project", s, l}, {"Projector.Project", ws, wl}, {"projectLinear", ls, ll}} {
			if math.Float64bits(c.s) != r.station || math.Float64bits(c.l) != r.lateral {
				t.Fatalf("row %d (seed %d, q=%v): %s = (%016x, %016x), golden (%016x, %016x)",
					i, r.seed, r.q, c.name, math.Float64bits(c.s), math.Float64bits(c.l),
					r.station, r.lateral)
			}
		}
	}
}

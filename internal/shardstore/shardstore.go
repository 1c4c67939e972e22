// Package shardstore is the tile geometry the distributed store
// (internal/cluster) partitions the provider's crowdsourced RSSI history
// by: square tiles of the plane, the owner tile of a position, and the
// halo of neighboring tiles a record is replicated into.
//
// Correctness across tile boundaries rests on the halo margin
//
//	margin = MaxQueryRadius + Store.R
//
// A record is owned by the tile containing it and replicated into every
// neighboring tile whose region lies within margin of it. With that margin
// the single tile owning a query position holds every record any Eq. 5/7
// reference query (radius ≤ MaxQueryRadius) can reach, and the complete
// Eq. 4 counting area (radius Store.R) of every record those queries use as
// a reference — so a query answered from the owning tile alone is
// bit-identical to the global rssimap.Store, float accumulation order
// included, provided each tile store keeps global insertion order. TileSize
// ≥ 2·margin bounds replication: a record lands in at most the 4 tiles of
// one corner block.
package shardstore

import (
	"fmt"
	"math"

	"trajforge/internal/geo"
	"trajforge/internal/rssimap"
)

// Config sizes the tiling.
type Config struct {
	// Store configures each per-tile rssimap.Store (counting radius R,
	// density base).
	Store rssimap.Config
	// TileSize is the tile side in metres. It must be at least
	// 2·(MaxQueryRadius + Store.R) so halo replication stays within one
	// corner block (≤ 4 tiles per record).
	TileSize float64
	// MaxQueryRadius is the largest reference radius r the tiling
	// guarantees exact answers for; stores built on it refuse larger
	// feature radii.
	MaxQueryRadius float64
}

// DefaultConfig tiles with the paper's calibrated store parameters, exact
// answers up to r = 5 m (double the paper's 2.5 m reference radius), and
// 25 m tiles.
func DefaultConfig() Config {
	return Config{Store: rssimap.DefaultConfig(), TileSize: 25, MaxQueryRadius: 5}
}

// Margin is the halo replication margin: a record is replicated into every
// neighboring tile whose region lies within this distance of it.
func (c Config) Margin() float64 { return c.MaxQueryRadius + c.Store.R }

// Validate checks the tiling geometry.
func (c Config) Validate() error {
	if c.TileSize <= 0 {
		return fmt.Errorf("shardstore: tile size %g must be positive", c.TileSize)
	}
	if c.MaxQueryRadius <= 0 {
		return fmt.Errorf("shardstore: max query radius %g must be positive", c.MaxQueryRadius)
	}
	if c.TileSize < 2*c.Margin() {
		return fmt.Errorf("shardstore: tile size %g must be >= 2*(MaxQueryRadius+R) = %g", c.TileSize, 2*c.Margin())
	}
	return nil
}

// TileOf returns the tile owning position p. internal/cluster distributes
// these tiles across nodes; every party must agree on the geometry
// bit-for-bit for cross-backend feature identity.
func (c Config) TileOf(p geo.Point) [2]int {
	return [2]int{int(math.Floor(p.X / c.TileSize)), int(math.Floor(p.Y / c.TileSize))}
}

// TileDist returns the distance from p to the (closed) region of tile t.
func (c Config) TileDist(p geo.Point, t [2]int) float64 {
	x0 := float64(t[0]) * c.TileSize
	y0 := float64(t[1]) * c.TileSize
	dx := math.Max(0, math.Max(x0-p.X, p.X-(x0+c.TileSize)))
	dy := math.Max(0, math.Max(y0-p.Y, p.Y-(y0+c.TileSize)))
	return math.Hypot(dx, dy)
}

// TilesFor appends the owner tile of p plus every neighboring tile within
// the halo margin — at most a 2×2 corner block given TileSize ≥ 2·Margin.
// The owner tile is always first.
func (c Config) TilesFor(p geo.Point, out [][2]int) [][2]int {
	out = out[:0]
	owner := c.TileOf(p)
	margin := c.Margin()
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			t := [2]int{owner[0] + dx, owner[1] + dy}
			if t == owner {
				continue
			}
			if c.TileDist(p, t) <= margin {
				out = append(out, t)
			}
		}
	}
	// Owner first: callers that only need the owning tile read out[0].
	out = append(out, [2]int{})
	copy(out[1:], out[:len(out)-1])
	out[0] = owner
	return out
}

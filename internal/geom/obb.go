package geom

import "math"

// OBB is an oriented bounding box: a rectangle with center, half-extents
// along its local axes, and yaw. Vehicles and static props are represented
// by OBBs for collision detection, mirroring CARLA's bounding boxes.
type OBB struct {
	Center Vec2
	Half   Vec2    // half-extent along local X (length/2) and Y (width/2)
	Yaw    float64 // orientation of the local X axis
}

// Corners returns the box's four corners in counter-clockwise order.
func (b OBB) Corners() [4]Vec2 {
	fx := UnitFromAngle(b.Yaw).Scale(b.Half.X)
	fy := UnitFromAngle(b.Yaw).Perp().Scale(b.Half.Y)
	return [4]Vec2{
		b.Center.Add(fx).Add(fy),
		b.Center.Sub(fx).Add(fy),
		b.Center.Sub(fx).Sub(fy),
		b.Center.Add(fx).Sub(fy),
	}
}

// Contains reports whether point q lies inside the box (inclusive).
func (b OBB) Contains(q Vec2) bool {
	local := q.Sub(b.Center).Rotate(-b.Yaw)
	return math.Abs(local.X) <= b.Half.X && math.Abs(local.Y) <= b.Half.Y
}

// Intersects reports whether two OBBs overlap, using the separating-axis
// theorem on the four face normals.
func (b OBB) Intersects(o OBB) bool {
	axes := [4]Vec2{
		UnitFromAngle(b.Yaw),
		UnitFromAngle(b.Yaw).Perp(),
		UnitFromAngle(o.Yaw),
		UnitFromAngle(o.Yaw).Perp(),
	}
	bc := b.Corners()
	oc := o.Corners()
	for _, axis := range axes {
		bMin, bMax := projectExtent(bc[:], axis)
		oMin, oMax := projectExtent(oc[:], axis)
		if bMax < oMin || oMax < bMin {
			return false
		}
	}
	return true
}

// projectExtent returns the min/max projection of points onto axis.
func projectExtent(pts []Vec2, axis Vec2) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		d := p.Dot(axis)
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	return lo, hi
}

// AABB is an axis-aligned bounding box used for cheap broad-phase
// rejection before the SAT test.
type AABB struct {
	Min, Max Vec2
}

// AABBOf returns the axis-aligned bounds of an OBB.
func AABBOf(b OBB) AABB {
	c := b.Corners()
	out := AABB{Min: c[0], Max: c[0]}
	for _, p := range c[1:] {
		out.Min.X = math.Min(out.Min.X, p.X)
		out.Min.Y = math.Min(out.Min.Y, p.Y)
		out.Max.X = math.Max(out.Max.X, p.X)
		out.Max.Y = math.Max(out.Max.Y, p.Y)
	}
	return out
}

// Overlaps reports whether two AABBs overlap (inclusive).
func (a AABB) Overlaps(o AABB) bool {
	return a.Min.X <= o.Max.X && o.Min.X <= a.Max.X &&
		a.Min.Y <= o.Max.Y && o.Min.Y <= a.Max.Y
}

// Expand grows the box by m metres on every side.
func (a AABB) Expand(m float64) AABB {
	return AABB{Min: V(a.Min.X-m, a.Min.Y-m), Max: V(a.Max.X+m, a.Max.Y+m)}
}

// Dist returns the Euclidean distance from q to the box; zero inside.
func (a AABB) Dist(q Vec2) float64 {
	return math.Sqrt(rectDistSq(q, a.Min.X, a.Min.Y, a.Max.X, a.Max.Y))
}

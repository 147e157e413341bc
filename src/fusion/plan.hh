/**
 * @file
 * TilePlan: the complete pyramid geometry for one fusion group.
 *
 * Given a network, a contiguous layer range to fuse, and a tip tile size,
 * the plan precomputes for every fused layer the input span it touches
 * for each pyramid row/column, the "fresh" sub-span that is newly
 * produced at each step (everything else comes from the reuse buffers),
 * and the reuse-buffer and assembly-buffer dimensions the executor will
 * allocate. This realizes the paper's Section III-B exploration
 * framework and the calcparams module of Section IV-B, generalized to
 * ragged edges and arbitrary tip tiles.
 *
 * The plan also fixes Section III-C's choice for the overlap between
 * neighboring pyramids. A *retaining* plan (the default, the reuse
 * model) carries it on chip in the BL/BT buffers. A *recompute* plan
 * (retain = false) carries nothing: every pyramid's fresh span is its
 * whole span, so each pyramid reloads its full base tile and recomputes
 * every intermediate it needs, and no reuse buffer exists. The same
 * executor (FusedExecutor) runs both.
 */

#ifndef FLCNN_FUSION_PLAN_HH
#define FLCNN_FUSION_PLAN_HH

#include <string>
#include <vector>

#include "fusion/span.hh"
#include "nn/network.hh"

namespace flcnn {

/**
 * Per-layer geometry inside a fusion plan.
 *
 * Two span families exist per axis. The *full* input span (fullInX/Y) is
 * the receptive field of the layer's whole output span — it drives the
 * backward recursion and the fresh-data accounting. The *compute* span
 * (inX/Y) is the receptive field of only the output the layer newly
 * computes at this pyramid; it is what the assembly tile holds. Only the
 * first pyramid of a row/column computes a full tile (the paper's
 * "inW1 = X if col = 0" case); interior pyramids compute an Sx-wide
 * sliver whose tile overlaps the previous one by exactly K - S — which
 * is why the reuse buffers stay small.
 */
struct LayerGeom
{
    int layerIdx = 0;          //!< index into the network
    Shape inPlane;             //!< full input plane of this layer
    Shape outPlane;            //!< full output plane

    std::vector<Span> inX;     //!< compute (tile) span per pyramid column
    std::vector<Span> inY;     //!< compute (tile) span per pyramid row
    std::vector<Span> fullInX; //!< full receptive span per column
    std::vector<Span> fullInY; //!< full receptive span per row
    std::vector<Span> outX;    //!< output span per pyramid column
    std::vector<Span> outY;    //!< output span per pyramid row

    int maxTileW = 0;          //!< widest compute span over all columns
    int maxTileH = 0;          //!< tallest compute span over all rows
    int maxFullInW = 0;        //!< widest full span (recompute model)
    int maxFullInH = 0;
    int maxFreshOutW = 0;      //!< widest fresh output over all columns
    int maxFreshOutH = 0;

    int overlapX = 0;          //!< max columns carried between pyramids
    int overlapY = 0;          //!< max rows carried between pyramid rows
                               //!< (both 0 when the plan does not retain)

    /**
     * A layer is *active* at pyramid column c (row r) when it computes
     * fresh output there. Border clipping under padding can stall a
     * layer for some pyramids (the fresh span is empty); reuse buffers
     * then hand data to the next active pyramid, not the next index.
     */
    std::vector<uint8_t> activeX;
    std::vector<uint8_t> activeY;
    bool isActiveX(int c) const { return activeX[static_cast<size_t>(c)]; }
    bool isActiveY(int r) const { return activeY[static_cast<size_t>(r)]; }

    /** Tile-span begin of the next active pyramid after c (r), or -1
     *  when no later pyramid computes at this layer. */
    std::vector<int> nextBeginX;
    std::vector<int> nextBeginY;

    /** Whether the overlap with the previous pyramid is carried on chip
     *  (reuse model) or recomputed (TilePlan's retain flag). */
    bool retain = true;

    /** Fresh (newly arriving) part of the tile at column c: the compute
     *  span minus everything previous pyramids already brought on chip
     *  (the whole compute span when the plan does not retain). */
    Span freshInX(int c) const;
    Span freshInY(int r) const;

    /** Fresh part of the output span at column c / row r (the whole
     *  span when the plan does not retain). */
    Span freshOutX(int c) const;
    Span freshOutY(int r) const;

    /** True when this layer is Conv or Pool (has a window and therefore
     *  assembly + reuse buffers). */
    bool windowed = false;

    /** Buffer sizes in bytes (4 B per element). */
    int64_t tileBytes() const;   //!< input assembly buffer
    int64_t blBytes() const;     //!< left reuse buffer
    int64_t btBytes() const;     //!< top (row) reuse buffer
    int64_t freshOutBytes() const;
};

/** Complete pyramid plan for a fusion group. */
class TilePlan
{
  public:
    /**
     * Build the plan for fusing layers [first, last] of @p net with a
     * tip tile of @p tip_h x @p tip_w group-output pixels per pyramid.
     * @p retain picks Section III-C's strategy: true keeps the overlap
     * between pyramids in reuse buffers, false recomputes it.
     * fatal()s if the range contains a non-fusable layer.
     */
    TilePlan(const Network &net, int first_layer, int last_layer,
             int tip_h = 1, int tip_w = 1, bool retain = true);

    int firstLayer() const { return first; }
    int lastLayer() const { return last; }
    int tipH() const { return tiph; }
    int tipW() const { return tipw; }

    /** Pyramid grid dimensions. */
    int numPyramidRows() const { return prows; }
    int numPyramidCols() const { return pcols; }
    int64_t
    numPyramids() const
    {
        return static_cast<int64_t>(prows) * pcols;
    }

    /** Geometry of fused layer i (0 = first fused layer). */
    const LayerGeom &geom(int i) const;
    int numFusedLayers() const { return static_cast<int>(geoms.size()); }

    /** Shape of the group's input / output planes. */
    const Shape &groupInput() const { return geoms.front().inPlane; }
    const Shape &groupOutput() const { return geoms.back().outPlane; }

    /**
     * Total reuse-buffer bytes (BL + BT over all windowed layers): the
     * quantity the paper reports as the cost of the reuse model.
     */
    int64_t reuseBufferBytes() const;

    /** Total assembly (tile) + fresh-output buffer bytes: the working
     *  set on top of the reuse buffers. */
    int64_t workingBufferBytes() const;

    /** Bytes of the first-layer input the pyramids load from DRAM
     *  (every used element exactly once under the reuse model; every
     *  pyramid's whole base tile, overlap re-reads included, under
     *  recompute). */
    int64_t inputBytesLoaded() const;

    /** Bytes of group output stored to DRAM. */
    int64_t outputBytesStored() const;

    /** Multi-line description: the pyramid profile per layer. */
    std::string str() const;

  private:
    const Network &net;
    int first, last;
    int tiph, tipw;
    int prows = 0, pcols = 0;
    std::vector<LayerGeom> geoms;
};

} // namespace flcnn

#endif // FLCNN_FUSION_PLAN_HH

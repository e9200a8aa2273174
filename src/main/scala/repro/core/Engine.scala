package repro.core

import org.apache.spark.sql.Dataset

/** One clustering epoch: a single pass over the cached points (one
  * `Points.pass` job) that evaluates a move rule against candidate clusters
  * and, in the same pass, re-sums the composites under the epoch's final
  * labels.
  *
  * Two rules:
  *
  *  - [[Engine.BoostRule]] — boost k-means (paper Eqn. 3): move x from Sᵤ to
  *    the Sᵥ maximising ΔI(x) if positive. Within a partition, accepted moves
  *    are applied immediately against a copy-on-write local view of the
  *    composites, exactly the paper's incremental procedure; across
  *    partitions state is the epoch-start snapshot (the standard
  *    distributed-incremental relaxation).
  *  - [[Engine.NearestRule]] — classic Lloyd assignment: move to the nearest
  *    candidate centroid, all evaluated against the epoch-start state, so a
  *    full-candidate epoch is *exactly* one Lloyd iteration (distortion
  *    non-increasing).
  *
  * Either rule scores each distinct candidate cluster other than the
  * point's own exactly once, in the order the generator first emits it;
  * `distEvals` counts those scorings. Both take the point's dot products
  * with the own and candidate composites two rows at a time
  * (`VecOps.dotFD2`), each bit-identical to a `dotFD` call.
  *
  * The new state is a re-sum, not a running delta: a partition adds its
  * points under their final labels, in partition order, as
  * `ClusterState.fromLabels` would, so the two agree bit for bit. When the
  * input state was summed over the same points under the same labels array,
  * a partition re-sums and ships only the rows of clusters that gained or
  * lost a point in it, and the driver reuses every other row
  * (`ClusterState.fromRows`).
  */
object Engine {

  sealed trait Rule extends Serializable
  case object BoostRule extends Rule
  case object NearestRule extends Rule

  /** One partition's accepted moves (point ids and their new clusters), its
    * candidate scorings, and its re-summed rows (null when the epoch does not
    * recompute its state).
    */
  private final case class MoveChunk(ids: Array[Int], target: Array[Int], evals: Long, rows: SumRows)

  final case class EpochResult(
      labels: Array[Int],
      state: ClusterState,
      moved: Long,
      distEvals: Long,
  )

  /** Copy-on-write view over a broadcast ClusterState used by BoostRule. */
  private final class LocalState(base: ClusterState) {
    val cnt: Array[Long] = base.cnt.clone()
    val norm: Array[Double] = base.compNormSq.clone()
    val comp: Array[Array[Double]] = base.comp.clone() // shallow row refs
    private val owned = new java.util.BitSet(base.k)

    private def own(r: Int): Array[Double] = {
      if (!owned.get(r)) { comp(r) = comp(r).clone(); owned.set(r) }
      comp(r)
    }

    /** Apply the accepted move of x (‖x‖² = xx) from u to v.
      * `dotU`/`dotV` are Dᵤ·x and Dᵥ·x computed during evaluation.
      */
    def applyMove(x: Array[Float], xx: Double, u: Int, v: Int, dotU: Double, dotV: Double): Unit = {
      norm(u) = norm(u) - 2.0 * dotU + xx
      VecOps.subFrom(own(u), x)
      cnt(u) -= 1
      if (cnt(u) == 0) norm(u) = 0.0
      if (cnt(v) == 0) {
        VecOps.setFrom(own(v), x) // empty cluster: composite becomes {x}
        norm(v) = xx
      } else {
        norm(v) = norm(v) + 2.0 * dotV + xx
        VecOps.addTo(own(v), x)
      }
      cnt(v) += 1
    }
  }

  /** Run one epoch; returns the new labels and (by default) their state,
    * equal to `ClusterState.fromLabels(points, newLabels, k, d, Some(state))`
    * even when no point moved, so an input `state` that does not describe
    * `labels` (a seed state from `ClusterState.fromCentroids`) never comes
    * back. With `recomputeState = false` (for callers that read only the
    * labels, or recompute state themselves) it returns `state` itself.
    * Like `fromLabels`, it fails on a vector whose length is not `state.d`
    * and on points that do not number one per label. A `state` from
    * `fromLabels`, or from an epoch, on these `points` and this `labels`
    * array re-sums only the clusters that changed.
    */
  def epoch(
      points: Dataset[Point],
      labels: Array[Int],
      state: ClusterState,
      cand: CandidateGen,
      rule: Rule,
      recomputeState: Boolean = true,
  ): EpochResult = {
    val sc = points.sparkSession.sparkContext
    val basis = state.basis
    val delta = recomputeState && basis != null && basis.rddId == points.rdd.id && (basis.labels eq labels)
    val bcL = sc.broadcast(labels)
    val bcS = sc.broadcast(state)
    val chunks =
      try {
        Points.pass(points, "core.Engine.epoch", labels.length, state.d) { it =>
          val lab = bcL.value
          val st = bcS.value
          val buf = new Array[Int](cand.maxCandidates)
          val stamp = new Array[Int](st.k)
          var tag = 0
          val movedIds = Array.newBuilder[Int]
          val movedTo = Array.newBuilder[Int]
          var evals = 0L
          // Reduce the raw candidates of point i to the distinct clusters
          // other than u, in first-emission order, in buf(0 until m).
          def candidates(i: Int, u: Int): Int = {
            val raw = cand.fill(i, lab, buf)
            tag += 1
            stamp(u) = tag
            var m = 0
            var j = 0
            while (j < raw) {
              val v = buf(j)
              if (stamp(v) != tag) { stamp(v) = tag; buf(m) = v; m += 1 }
              j += 1
            }
            evals += m
            m
          }
          val ls = if (rule == BoostRule) new LocalState(st) else null
          // Both rules' dot products for one point: dots(0) = Dᵤ·x and
          // dots(1 + j) = D_buf(j)·x, two rows at a time by `dotFD2`, an
          // odd last row by `dotFD`. BoostRule reads its local view's
          // rows, NearestRule the epoch-start state's.
          val comp = if (ls != null) ls.comp else st.comp
          val dots = new Array[Double](cand.maxCandidates + 1)
          def fillDots(x: Array[Float], u: Int, m: Int): Unit = {
            def row(i: Int): Array[Double] = comp(if (i == 0) u else buf(i - 1))
            var i = 0
            while (i < m) { VecOps.dotFD2(x, row(i), row(i + 1), dots, i); i += 2 }
            if (i == m) dots(m) = VecOps.dotFD(x, row(m))
          }
          // Every point's vector and final label, in partition order, for the
          // re-sum after the pass, and the clusters that gained or lost a point.
          val xs = if (recomputeState) Array.newBuilder[Array[Float]] else null
          val tos = Array.newBuilder[Int]
          val changed = new java.util.BitSet(st.k)
          it.foreach { p =>
            val i = p.id.toInt
            val u = lab(i)
            val x = p.vec
            val xx = VecOps.normSqF(x)
            val m = candidates(i, u)
            fillDots(x, u, m)
            val to = rule match {
              case BoostRule =>
                // Removal gain g(u) under the local (within-partition) state.
                // nu >= 1 always: x itself is still a member of Sᵤ here.
                val dotU = dots(0)
                val gU = BoostMath.removalGain(ls.norm(u), ls.cnt(u), dotU, xx)
                var best = -1
                var bestGain = 0.0
                var bestDotV = 0.0
                var j = 0
                while (j < m) {
                  val v = buf(j)
                  val dotV = dots(j + 1)
                  val gain = BoostMath.insertionGain(ls.norm(v), ls.cnt(v), dotV, xx) + gU
                  if (gain > bestGain) { bestGain = gain; best = v; bestDotV = dotV }
                  j += 1
                }
                val eps = 1e-9 * (xx + 1.0)
                if (best >= 0 && bestGain > eps) { ls.applyMove(x, xx, u, best, dotU, bestDotV); best }
                else u
              case NearestRule =>
                var best = u
                var bestD = st.sqDistFromDot(xx, u, dots(0))
                var j = 0
                while (j < m) {
                  val v = buf(j)
                  val dd = st.sqDistFromDot(xx, v, dots(j + 1))
                  if (dd < bestD) { bestD = dd; best = v }
                  j += 1
                }
                best
            }
            if (to != u) { movedIds += i; movedTo += to; changed.set(u); changed.set(to) }
            if (xs != null) { xs += x; tos += to }
          }
          // The rows to ship: every cluster the partition holds or, over a
          // basis, only the changed ones (one that lost its last point here
          // ships with count 0).
          val rows =
            if (xs == null) null
            else {
              val acc = new PartialSums(st.k, st.d)
              val vs = xs.result(); val to = tos.result()
              var i = 0
              while (i < vs.length) { if (!delta || changed.get(to(i))) acc.add(to(i), vs(i)); i += 1 }
              acc.rows(if (delta) changed else null)
            }
          MoveChunk(movedIds.result(), movedTo.result(), evals, rows)
        }
      } finally { bcL.destroy(); bcS.destroy() }

    val newLabels = labels.clone()
    var moved = 0L
    var evals = 0L
    chunks.foreach { ch =>
      evals += ch.evals
      var i = 0
      while (i < ch.ids.length) { newLabels(ch.ids(i)) = ch.target(i); i += 1 }
      moved += ch.ids.length
    }
    val newState =
      if (recomputeState) ClusterState.fromRows(points.rdd.id, newLabels, chunks.map(_.rows), state.k, state.d, Some(state), delta)
      else state
    EpochResult(newLabels, newState, moved, evals)
  }
}

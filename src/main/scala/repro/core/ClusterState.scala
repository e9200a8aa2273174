package repro.core

import org.apache.spark.sql.Dataset

/** Cluster model state: composite vectors `Dᵣ = Σ_{x∈Sᵣ} x` and counts `nᵣ`.
  *
  * This is the state boost k-means optimises (paper Eqn. 2/3): both the ΔI
  * move rule and the nearest-centroid rule are evaluated from `(Dᵣ, nᵣ)`.
  * The within-cluster sum of squares obeys the identity
  * `Σᵣ Σ_{x∈Sᵣ} ‖x − Cᵣ‖² = Σ‖x‖² − Σᵣ ‖Dᵣ‖²/nᵣ`, which lets the paper's
  * average distortion (Eqn. 4) be computed from the state in O(k·d).
  *
  * Empty-cluster convention: when `cnt(r) == 0`, `comp(r)` holds a *fallback
  * centroid* (the last non-empty centroid, or the seed vector) rather than the
  * zero composite. `centroid(r)` and both move rules branch on `cnt(r)` so the
  * convention is internal to this class and `Engine`.
  *
  * A state re-summed from the points keeps, on the driver only, the
  * per-partition sums it was added up from ([[ClusterState.Basis]]), so that
  * the next epoch re-sums only the cluster rows that changed. Neither the
  * state's arrays nor the labels array it was summed under may be written
  * after it is built.
  */
final class ClusterState(
    val k: Int,
    val d: Int,
    val comp: Array[Array[Double]],
    val cnt: Array[Long],
    @transient private[core] val basis: ClusterState.Basis = null,
) extends Serializable {
  require(comp.length == k && cnt.length == k, "state arrays must have length k")

  /** ‖Dᵣ‖² per cluster (‖fallback centroid‖² for empty clusters). */
  @transient lazy val compNormSq: Array[Double] = comp.map(VecOps.normSqD)

  /** Centroid of cluster r (fallback centroid if the cluster is empty). */
  def centroid(r: Int): Array[Double] =
    if (cnt(r) > 0) VecOps.centroidOf(comp(r), cnt(r)) else comp(r)

  /** Squared distance from x to centroid(r), using cached ‖Dᵣ‖². */
  def sqDistToCentroid(x: Array[Float], xx: Double, r: Int): Double =
    sqDistFromDot(xx, r, VecOps.dotFD(x, comp(r)))

  /** Squared distance from x to centroid(r) given ‖x‖² = xx and
    * `dot = dotFD(x, comp(r))`: the one distance formula, for a non-empty
    * cluster and for an empty one's fallback centroid.
    */
  def sqDistFromDot(xx: Double, r: Int, dot: Double): Double =
    if (cnt(r) > 0) {
      val n = cnt(r).toDouble
      xx - 2.0 * dot / n + compNormSq(r) / (n * n)
    } else {
      xx - 2.0 * dot + compNormSq(r)
    }

  /** Σᵣ ‖Dᵣ‖²/nᵣ over non-empty clusters — the boost-k-means objective I. */
  def objectiveI: Double = {
    var s = 0.0; var r = 0
    while (r < k) { if (cnt(r) > 0) s += compNormSq(r) / cnt(r); r += 1 }
    s
  }

  /** Average distortion (paper Eqn. 4) given Σ‖x‖² and n. */
  def distortion(sumSqNorm: Double, n: Long): Double = (sumSqNorm - objectiveI) / n
}

object ClusterState {

  /** Where a state's sums came from: the id of the RDD they were summed
    * over, the labels array they describe, and each partition's sums, whose
    * rows the state's composites add up in partition order.
    */
  private[core] final class Basis(val rddId: Int, val labels: Array[Int], val parts: Array[PartialSums])

  /** Exact distributed recompute of `(Dᵣ, nᵣ)` from a label assignment.
    * Clusters that end up empty inherit `prev`'s centroid as their fallback
    * (or zero if there is no previous state). Fails, naming the point, on a
    * vector that does not have d values or an id with no label, and fails
    * if the points are fewer than the labels.
    */
  def fromLabels(
      points: Dataset[Point],
      labels: Array[Int],
      k: Int,
      d: Int,
      prev: Option[ClusterState] = None,
  ): ClusterState = {
    val bcL = points.sparkSession.sparkContext.broadcast(labels)
    val rows =
      try {
        Points.pass(points, "core.ClusterState.fromLabels", labels.length, d) { it =>
          val lab = bcL.value
          val acc = new PartialSums(k, d)
          it.foreach(p => acc.add(lab(p.id.toInt), p.vec))
          acc.rows(null)
        }
      } finally bcL.destroy()
    fromRows(points.rdd.id, labels, rows, k, d, prev, delta = false)
  }

  /** The state of `labels` from the rows each partition of the RDD `rddId`
    * shipped. Without `delta`, `rows(p)` holds every cluster partition p
    * has points in, and every cluster is re-summed. With `delta`, `prev`
    * holds a [[Basis]] on the same RDD, and `rows(p)` holds only the
    * clusters that gained or lost a point in partition p: they replace
    * those rows of prev's partition sums, only the clusters they name are
    * re-summed, and every other cluster keeps prev's row and count. Both
    * give the same bits.
    */
  private[core] def fromRows(
      rddId: Int, labels: Array[Int], rows: Array[SumRows], k: Int, d: Int,
      prev: Option[ClusterState], delta: Boolean,
  ): ClusterState = {
    val changed = if (delta) new java.util.BitSet(k) else null
    val parts = Array.tabulate(rows.length) { p =>
      val ps = if (delta) prev.get.basis.parts(p).copy() else new PartialSums(k, d)
      ps.write(rows(p), changed)
      ps
    }
    fromSums(parts, k, d, prev, changed, new Basis(rddId, labels, parts))
  }

  /** State from every partition's partial sums: each cluster in `changed`
    * (every cluster when it is null) adds the partitions' rows in partition
    * order, starting from a zero vector, and the others keep `prev`'s row
    * and count. Clusters no partition touches are empty and fall back as in
    * [[fromLabels]].
    */
  private[core] def fromSums(
      parts: Array[PartialSums], k: Int, d: Int, prev: Option[ClusterState],
      changed: java.util.BitSet = null, basis: Basis = null,
  ): ClusterState = {
    val comp = new Array[Array[Double]](k)
    val cnt = new Array[Long](k)
    var r = 0
    while (r < k) {
      if (changed != null && !changed.get(r)) {
        comp(r) = prev.get.comp(r)
        cnt(r) = prev.get.cnt(r)
      } else {
        parts.foreach { p =>
          if (p.sum(r) != null) {
            if (comp(r) == null) comp(r) = new Array[Double](d)
            VecOps.addToDD(comp(r), p.sum(r))
            cnt(r) += p.cnt(r)
          }
        }
        if (comp(r) == null) comp(r) = prev.fold(new Array[Double](d))(_.centroid(r).clone())
      }
      r += 1
    }
    new ClusterState(k, d, comp, cnt, basis)
  }

  /** State representing k seed centroids with no members yet (cnt = 0,
    * comp(r) = fallback centroid = seed vector). Used for Lloyd/Mini-Batch
    * style random-seed initialisation before the first assignment pass.
    */
  def fromCentroids(cents: Array[Array[Double]]): ClusterState = {
    require(cents.nonEmpty)
    new ClusterState(cents.length, cents(0).length, cents.map(_.clone()), new Array[Long](cents.length))
  }
}

/** One partition's per-cluster sums and counts, indexed by cluster:
  * `add(r, x)` adds x to row r, which stays null until the partition adds a
  * point to cluster r.
  */
private[core] final class PartialSums(k: Int, d: Int) extends Serializable {
  val sum = new Array[Array[Double]](k)
  val cnt = new Array[Long](k)

  def add(r: Int, x: Array[Float]): Unit = {
    if (sum(r) == null) sum(r) = new Array[Double](d)
    VecOps.addTo(sum(r), x)
    cnt(r) += 1
  }

  /** These sums as a task ships them: the rows of the clusters in `only`
    * (a cluster with no points as count 0), or of every cluster with points
    * when `only` is null.
    */
  def rows(only: java.util.BitSet): SumRows = {
    val ids = if (only != null) only.stream().toArray else (0 until k).filter(sum(_) != null).toArray
    val flat = new Array[Double](ids.length * d)
    ids.indices.foreach(i => if (sum(ids(i)) != null) System.arraycopy(sum(ids(i)), 0, flat, i * d, d))
    SumRows(ids, ids.map(cnt), flat)
  }

  /** A copy that shares the rows, which are never written once shipped. */
  def copy(): PartialSums = {
    val c = new PartialSums(k, d)
    System.arraycopy(sum, 0, c.sum, 0, k)
    System.arraycopy(cnt, 0, c.cnt, 0, k)
    c
  }

  /** Sets the row of every cluster `rows` names (null for a count of 0) and
    * marks it in `changed`, if given.
    */
  def write(rows: SumRows, changed: java.util.BitSet): Unit = {
    var i = 0
    while (i < rows.ids.length) {
      val r = rows.ids(i)
      cnt(r) = rows.cnt(i)
      sum(r) = if (rows.cnt(i) == 0) null else java.util.Arrays.copyOfRange(rows.sum, i * d, i * d + d)
      if (changed != null) changed.set(r)
      i += 1
    }
  }
}

/** Per-cluster sums of one partition's points as a task ships them, in three
  * flat arrays: row i is cluster `ids(i)`, with `cnt(i)` points whose values
  * add up to `sum(i·d until (i + 1)·d)`.
  */
private[core] final case class SumRows(ids: Array[Int], cnt: Array[Long], sum: Array[Double])

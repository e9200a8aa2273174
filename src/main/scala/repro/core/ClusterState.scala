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
  */
final class ClusterState(
    val k: Int,
    val d: Int,
    val comp: Array[Array[Double]],
    val cnt: Array[Long],
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
    val parts =
      try {
        points.rdd
          .mapPartitions { it =>
            val lab = bcL.value
            val acc = new PartialSums(k, d)
            it.foreach { p =>
              Points.requireShape(p, lab.length, d)
              acc.add(lab(p.id.toInt), p.vec)
            }
            Iterator.single(acc)
          }
          .collect()
      } finally bcL.destroy()
    Points.requireAllSeen(parts.map(_.cnt.sum).sum, labels.length)
    fromSums(parts, k, d, prev)
  }

  /** State from every partition's partial sums: each cluster adds the
    * partitions' rows in collect order, starting from a zero vector. Clusters
    * no partition touches are empty and fall back as in [[fromLabels]].
    */
  private[core] def fromSums(parts: Array[PartialSums], k: Int, d: Int, prev: Option[ClusterState]): ClusterState = {
    val comp = new Array[Array[Double]](k)
    val cnt = new Array[Long](k)
    var r = 0
    while (r < k) {
      parts.foreach { p =>
        if (p.sum(r) != null) {
          if (comp(r) == null) comp(r) = new Array[Double](d)
          VecOps.addToDD(comp(r), p.sum(r))
          cnt(r) += p.cnt(r)
        }
      }
      if (comp(r) == null) comp(r) = prev.fold(new Array[Double](d))(_.centroid(r).clone())
      r += 1
    }
    new ClusterState(k, d, comp, cnt)
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
}

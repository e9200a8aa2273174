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
    if (cnt(r) > 0) {
      val n = cnt(r).toDouble
      xx - 2.0 * VecOps.dotFD(x, comp(r)) / n + compNormSq(r) / (n * n)
    } else {
      xx - 2.0 * VecOps.dotFD(x, comp(r)) + compNormSq(r)
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
    * (or zero if there is no previous state).
    */
  def fromLabels(
      points: Dataset[Point],
      labels: Array[Int],
      k: Int,
      d: Int,
      prev: Option[ClusterState] = None,
  ): ClusterState = {
    val bcL = points.sparkSession.sparkContext.broadcast(labels)
    val chunks =
      try {
        points.rdd
          .mapPartitions { it =>
            val lab = bcL.value
            val acc = new PartialSums(d)
            it.foreach(p => acc.add(lab(p.id.toInt), p.vec))
            acc.chunks.iterator
          }
          .collect()
      } finally bcL.destroy()
    fromSums(chunks, k, d, prev)
  }

  /** State from every partition's partial sums, in collect order; clusters
    * no chunk touches are empty and fall back as in [[fromLabels]].
    */
  private[core] def fromSums(chunks: Array[SumChunk], k: Int, d: Int, prev: Option[ClusterState]): ClusterState = {
    val (comp, cnt) = PartialSums.merge(chunks, k, d)
    var r = 0
    while (r < k) {
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

/** Sparse per-cluster partial sums of one partition (a partition holds far
  * fewer than k distinct clusters once k is large): `add(r, x)` adds x to
  * key r, and `chunks` emits one [[SumChunk]] per key touched.
  */
private[core] final class PartialSums(d: Int) {
  private val slots = new java.util.HashMap[Int, PartialSums.Slot]()

  def add(r: Int, x: Array[Float]): Unit = {
    var s = slots.get(r)
    if (s == null) { s = new PartialSums.Slot(new Array[Double](d)); slots.put(r, s) }
    VecOps.addTo(s.sum, x)
    s.cnt += 1
  }

  def chunks: Array[SumChunk] = {
    import scala.jdk.CollectionConverters._
    slots.asScala.iterator.map { case (r, s) => SumChunk(r, s.sum, s.cnt) }.toArray
  }
}

private[core] object PartialSums {
  private final class Slot(val sum: Array[Double]) { var cnt = 0L }

  /** Sums the chunks per key in collect order, each from a zero vector;
    * keys no chunk touches keep a null sum and a zero count.
    */
  def merge(chunks: Array[SumChunk], keys: Int, d: Int): (Array[Array[Double]], Array[Long]) = {
    val sum = new Array[Array[Double]](keys)
    val cnt = new Array[Long](keys)
    chunks.foreach { c =>
      if (sum(c.r) == null) sum(c.r) = new Array[Double](d)
      VecOps.addToDD(sum(c.r), c.sum)
      cnt(c.r) += c.cnt
    }
    (sum, cnt)
  }
}

package repro.core

import org.apache.spark.sql.Dataset
import scala.util.Random

/** Row emitted by the distributed margin pass: how far point `id` (currently
  * in `label`) leans toward the second child centroid of its bisection.
  */
final case class MarginRow(id: Long, label: Int, margin: Double)

/** (id, final label) row from the local-finish phase. */
final case class Labeled(id: Long, label: Int)

/** Two-means tree initialisation (paper Alg. 1), distributed.
  *
  * The paper recursively pops the largest cluster and bisects it with an
  * equal-size adjustment until k clusters exist — `O(d·n·log k)`. Here the
  * top of the tree is level-synchronous over the whole `Dataset[Point]`
  * (every still-too-coarse cluster is bisected in the same pass: seed pick,
  * `TwoMeansIters` (2) 2-means rounds of sparse partial sums, then a margin
  * pass cut at the per-cluster median), and once the tree is
  * `MaxDistributedClusters` (64) wide the remaining subtrees are finished
  * inside parallel `flatMapGroups` tasks with `LocalKMeans.twoMeansTree`,
  * each subtree getting a leaf quota proportional to its size (which is what
  * the paper's pop-largest rule converges to, since splits are equal-size).
  */
object TwoMeansTree {

  /** Tree width at which the level-synchronous top hands over to the local finish. */
  private val MaxDistributedClusters = 64

  /** 2-means rounds per distributed bisection, before the median cut. */
  private val TwoMeansIters = 2

  def cluster(points: Dataset[Point], n: Int, k: Int, d: Int, seed: Long): Array[Int] = {
    require(k >= 1 && k <= n, s"need 1 <= k=$k <= n=$n")
    val labels = new Array[Int](n)
    if (k == 1) return labels

    val target1 = math.min(k, MaxDistributedClusters)
    var ac = 1 // active cluster count; labels are dense in [0, ac)
    var round = 0
    while (ac < target1) {
      val sizes = clusterSizes(labels, ac)
      val splittable = (0 until ac).filter(sizes(_) >= 2)
      val toSplit =
        if (2 * ac <= target1) splittable
        else splittable.sortBy(-sizes(_)).take(target1 - ac)
      require(toSplit.nonEmpty, s"no splittable cluster at ac=$ac (n=$n, k=$k)")
      ac = bisectDistributed(points, labels, ac, toSplit.toArray, d, seed ^ (round * 0x9E3779B9L))
      round += 1
    }

    if (k > ac) {
      // Local finish: proportional leaf quotas, subtree per current cluster.
      val sizes = clusterSizes(labels, ac)
      val quotas = leafQuotas(sizes, k)
      val offsets = quotas.scanLeft(0)(_ + _)
      val sp = points.sparkSession
      import sp.implicits._
      val bcL = sp.sparkContext.broadcast(labels)
      val bcQ = sp.sparkContext.broadcast(quotas)
      val bcO = sp.sparkContext.broadcast(offsets)
      val finSeed = seed ^ 0x5DEECE66DL
      val rows =
        try {
          points
            .groupByKey(p => bcL.value(p.id.toInt))
            .flatMapGroups { (lab, it) =>
              val members = it.toArray.sortBy(_.id)
              val locLab = LocalKMeans.twoMeansTree(members.map(_.vec), bcQ.value(lab), finSeed ^ lab)
              val off = bcO.value(lab)
              members.iterator.zip(locLab.iterator).map { case (p, l) => Labeled(p.id, off + l) }
            }
            .collect()
        } finally { bcL.destroy(); bcQ.destroy(); bcO.destroy() }
      rows.foreach(r => labels(r.id.toInt) = r.label)
    }
    labels
  }

  /** One distributed bisection level over the clusters in `toSplit`.
    * Mutates `labels` in place; returns the new active cluster count.
    */
  private def bisectDistributed(
      points: Dataset[Point],
      labels: Array[Int],
      ac: Int,
      toSplit: Array[Int],
      d: Int,
      seed: Long,
  ): Int = {
    val sp = points.sparkSession
    import sp.implicits._
    val rng = new Random(seed)
    val splitSet = toSplit.toSet

    // Seed pick: 2 distinct random member ids per cluster, chosen on the
    // driver from the label array, vectors fetched in one filtered pass.
    val members = Array.fill(ac)(Vector.newBuilder[Long])
    var i = 0
    while (i < labels.length) { if (splitSet.contains(labels(i))) members(labels(i)) += i.toLong; i += 1 }
    val seedIds = toSplit.map { c =>
      val m = members(c).result()
      val a = m(rng.nextInt(m.size))
      var b = m(rng.nextInt(m.size))
      var guard = 0
      while (b == a && guard < 32) { b = m(rng.nextInt(m.size)); guard += 1 }
      if (b == a) b = m.find(_ != a).get // size >= 2 guaranteed by caller
      (c, a, b)
    }
    val vecById = Points.fetchVecs(points, seedIds.flatMap(s => Seq(s._2, s._3)).toSeq)

    // cents(2c) / cents(2c+1) are the two child centroids of cluster c.
    val cents = new Array[Array[Double]](2 * ac)
    seedIds.foreach { case (c, a, b) =>
      cents(2 * c) = vecById(a).map(_.toDouble)
      cents(2 * c + 1) = vecById(b).map(_.toDouble)
    }

    val bcL = sp.sparkContext.broadcast(labels.clone())
    try {
      var t = 0
      while (t < TwoMeansIters) {
        val bcC = sp.sparkContext.broadcast(cents)
        val chunks = points
          .mapPartitions { it =>
            val lab = bcL.value; val cs = bcC.value
            val acc = new PartialSums(d)
            it.foreach { p =>
              val c = lab(p.id.toInt)
              if (cs(2 * c) != null) {
                val side = if (VecOps.sqDistFD(p.vec, cs(2 * c)) <= VecOps.sqDistFD(p.vec, cs(2 * c + 1))) 0 else 1
                acc.add(2 * c + side, p.vec)
              }
            }
            acc.chunks.iterator
          }
          .collect()
        bcC.destroy()
        val (sums, cnt) = PartialSums.merge(chunks, 2 * ac, d)
        toSplit.foreach { c =>
          Seq(2 * c, 2 * c + 1).foreach { key =>
            if (cnt(key) > 0) cents(key) = VecOps.centroidOf(sums(key), cnt(key))
          }
        }
        t += 1
      }

      // Margin pass + equal-size cut at the per-cluster median (driver side;
      // one MarginRow per splitting point, exact median).
      val bcC = sp.sparkContext.broadcast(cents)
      val margins =
        try {
          points
            .mapPartitions { it =>
              val lab = bcL.value; val cs = bcC.value
              it.flatMap { p =>
                val c = lab(p.id.toInt)
                if (cs(2 * c) == null) Iterator.empty
                else Iterator.single(MarginRow(p.id, c, VecOps.sqDistFD(p.vec, cs(2 * c)) - VecOps.sqDistFD(p.vec, cs(2 * c + 1))))
              }
            }
            .collect()
        } finally bcC.destroy()

      var nextLabel = ac
      margins.groupBy(_.label).toSeq.sortBy(_._1).foreach { case (_, rows) =>
        val sorted = rows.sortBy(r => (r.margin, r.id))
        val half = sorted.length / 2 + (sorted.length % 2)
        sorted.drop(half).foreach(r => labels(r.id.toInt) = nextLabel)
        nextLabel += 1
      }
      nextLabel
    } finally bcL.destroy()
  }

  private def clusterSizes(labels: Array[Int], ac: Int): Array[Int] = {
    val s = new Array[Int](ac)
    var i = 0
    while (i < labels.length) { s(labels(i)) += 1; i += 1 }
    s
  }

  /** Leaf quotas per cluster: proportional to size, each in [1, size],
    * summing exactly to k (largest-remainder apportionment).
    */
  private[core] def leafQuotas(sizes: Array[Int], k: Int): Array[Int] = {
    val n = sizes.sum.toDouble
    val ideal = sizes.map(s => s * k / n)
    val q = ideal.zip(sizes).map { case (x, s) => math.min(s, math.max(1, x.toInt)) }
    var total = q.sum
    // Grow where the fractional remainder is largest and capacity remains.
    while (total < k) {
      val i = q.indices.filter(i => q(i) < sizes(i)).maxBy(i => ideal(i) - q(i))
      q(i) += 1; total += 1
    }
    while (total > k) {
      val i = q.indices.filter(i => q(i) > 1).minBy(i => ideal(i) - q(i))
      q(i) -= 1; total -= 1
    }
    q
  }
}

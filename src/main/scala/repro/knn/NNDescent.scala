package repro.knn

import org.apache.spark.sql.Dataset
import repro.core.{NbrUpdate, Point, Points, VecOps}
import repro.eval.Metrics
import scala.util.Random

/** One merged graph row coming back from a local-join round. */
final case class GraphRowOut(node: Int, ids: Array[Int], dists: Array[Double], fresh: Array[Boolean], inserted: Int)

/** NN-Descent / KGraph baseline (Dong et al., WWW'11) — the construction
  * algorithm the paper compares Alg. 3 against ("KGraph+GK-means" runs).
  *
  * Standard formulation with new/old flags and sampled reverse neighbours:
  * each round does a local join between every node's *new* candidates and
  * its new∪old candidates; distances for candidate pairs update both
  * endpoints' top-κ rows. The pair generation and distance evaluation are
  * distributed (`flatMap` over per-node tasks, `groupByKey` merge); the
  * model (graph rows + flags) lives on the driver like the centroid state
  * does for clustering — vectors are broadcast for random access, which
  * bounds this implementation to broadcastable n·d (documented; the paper's
  * own observation is that NN-Descent degrades at very large n).
  */
object NNDescent {

  def build(
      points: Dataset[Point],
      n: Int,
      d: Int,
      kappa: Int,
      maxIters: Int = 8,
      rho: Double = 0.5,
      seed: Long = 11,
      convergenceDelta: Double = 0.002,
      probe: Option[Probe] = None,
  ): BuildResult = {
    require(kappa < n, s"need kappa=$kappa < n=$n")
    val sp = points.sparkSession
    import sp.implicits._
    val t0 = System.nanoTime()
    val vecs = Points.collectVecs(points, n, d)
    val bcV = sp.sparkContext.broadcast(vecs)
    val recalls = Vector.newBuilder[Double]
    try {
      // Random graph with measured distances: each row's ids, in ascending
      // order, merge into the row, whose MaxValue entries are the placeholders.
      val graph = KnnGraph.random(n, kappa, seed)
      var i = 0
      while (i < n) {
        graph.ids(i).sorted.foreach(j => graph.merge(i, j, VecOps.sqDistFF(vecs(i), vecs(j))))
        i += 1
      }
      val fresh = Array.fill(n, kappa)(true)
      val rng = new Random(seed ^ 0xBEEF)
      val sampleCap = math.max(1, (rho * kappa).toInt)

      var t = 0
      var done = false
      while (t < maxIters && !done) {
        // Reverse lists of new / old entries, sampled to ρκ per node.
        val revNew = Array.fill(n)(List.empty[Int])
        val revOld = Array.fill(n)(List.empty[Int])
        i = 0
        while (i < n) {
          var j = 0
          while (j < kappa) {
            val tgt = graph.ids(i)(j)
            if (fresh(i)(j)) revNew(tgt) ::= i else revOld(tgt) ::= i
            j += 1
          }
          i += 1
        }
        def sampled(l: List[Int]): Array[Int] = {
          val a = l.toArray
          if (a.length <= sampleCap) a
          else rng.shuffle(a.toSeq).take(sampleCap).toArray
        }
        val newsArr = new Array[Array[Int]](n)
        val oldsArr = new Array[Array[Int]](n)
        i = 0
        while (i < n) {
          newsArr(i) = (graph.ids(i).indices.filter(fresh(i)(_)).map(graph.ids(i)(_)) ++ sampled(revNew(i))).distinct.toArray
          oldsArr(i) = (graph.ids(i).indices.filterNot(fresh(i)(_)).map(graph.ids(i)(_)) ++ sampled(revOld(i))).distinct.toArray
          i += 1
        }
        // All entries participating this round become old.
        i = 0
        while (i < n) { java.util.Arrays.fill(fresh(i), false); i += 1 }

        val bcIds = sp.sparkContext.broadcast(graph.ids)
        val bcDists = sp.sparkContext.broadcast(graph.dists)
        // candidate lists travel as broadcasts, not inside stage task binaries
        val bcNews = sp.sparkContext.broadcast(newsArr)
        val bcOlds = sp.sparkContext.broadcast(oldsArr)
        val merged =
          try {
            sp.range(n)
              .flatMap { nodeId =>
                val vs = bcV.value
                val out = Iterator.newBuilder[NbrUpdate]
                val news = bcNews.value(nodeId.toInt); val olds = bcOlds.value(nodeId.toInt)
                var a = 0
                while (a < news.length) {
                  var b = a + 1
                  while (b < news.length) {
                    val dd = VecOps.sqDistFF(vs(news(a)), vs(news(b)))
                    out += NbrUpdate(news(a), news(b), dd)
                    out += NbrUpdate(news(b), news(a), dd)
                    b += 1
                  }
                  b = 0
                  while (b < olds.length) {
                    if (news(a) != olds(b)) {
                      val dd = VecOps.sqDistFF(vs(news(a)), vs(olds(b)))
                      out += NbrUpdate(news(a), olds(b), dd)
                      out += NbrUpdate(olds(b), news(a), dd)
                    }
                    b += 1
                  }
                  a += 1
                }
                out.result()
              }
              .groupByKey(_.node)
              .mapGroups { (node, it) =>
                val row = bcIds.value(node).clone()
                val dd = bcDists.value(node).clone()
                val tmp = new KnnGraph(Array(row), Array(dd))
                var inserted = 0
                val insertedIds = new java.util.HashSet[Int]()
                it.foreach { u =>
                  if (tmp.merge(0, u.nbr, u.dist)) { inserted += 1; insertedIds.add(u.nbr) }
                }
                val fr = row.map(insertedIds.contains)
                GraphRowOut(node, row, dd, fr, inserted)
              }
              .collect()
          } finally { bcIds.destroy(); bcDists.destroy(); bcNews.destroy(); bcOlds.destroy() }

        var updates = 0L
        merged.foreach { r =>
          graph.ids(r.node) = r.ids
          graph.dists(r.node) = r.dists
          fresh(r.node) = r.fresh
          updates += r.inserted
        }
        probe.foreach { pr =>
          recalls += Metrics.recallTop1(graph.ids, graph.dists, pr.probeIds, pr.trueIds, pr.trueDists)
        }
        done = updates < convergenceDelta * n * kappa
        t += 1
      }
      BuildResult(graph, (System.nanoTime() - t0) / 1000000, recalls.result(), vecs, Vector.empty)
    } finally bcV.destroy()
  }
}

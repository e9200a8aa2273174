package repro.jobs

import repro.exp.{Experiments, ExpRow}

/** Reproduces the Fig. 6/7 scalability study (time and distortion as n and
  * k vary) as tables of the plotted points, and checks its shape claims.
  *
  * Usage: `spark-submit --class repro.jobs.ScalabilityJob <jar> [iters]`.
  */
object ScalabilityJob {
  def main(args: Array[String]): Unit = JobSession.run("scalability") { spark =>
    val rows = Experiments.scalability(
      spark,
      ns = Seq(10000, 30000, 60000), fixedK = 512,
      ks = Seq(512, 1024, 2048), fixedN = 30000,
      iters = JobSession.intArg(args, 0, 10),
    )
    println("== Fig. 6/7 (as table): VLAD-lite scalability in n and k ==")
    println(Experiments.fmtTable(rows))
    claims(rows)
  }

  /** Figs. 6/7 shape claims on the sweep points `main` runs. */
  def claims(rows: Seq[ExpRow]): Seq[Claim] = {
    def at(method: String, n: Int, k: Int): ExpRow =
      rows.find(r => r.method == method && r.n == n && r.k == k).get
    val llK = Seq(512, 2048).map(k => at("k-means", 30000, k).iterSec)
    val gkK = Seq(512, 2048).map(k => at("GK-means", 30000, k).iterSec)
    val gkVsBkm = rows.filter(_.method == "GK-means").map(gk => (gk, at("BKM", gk.n, gk.k)))
    val mb = at("Mini-Batch", 60000, 512)
    val bkm = at("BKM", 60000, 512)
    Seq(
      // Fig. 6(b): full-scan methods scale linearly in k; GK-means stays flat.
      Claim("kmeans_iter_grows_in_k", llK(1) > llK(0) * 2.0, s"k-means iteration time should grow ~linearly in k: $llK"),
      Claim("gk_iter_flat_in_k", gkK(1) < gkK(0) * 2.5 + 2.0, s"GK-means iteration time should stay ~flat in k: $gkK"),
      // Fig. 6(a): at the largest n, GK-means iterations are faster than full scans.
      Claim("gk_iter_lt_bkm_at_60k", at("GK-means", 60000, 512).iterSec < bkm.iterSec,
        "GK-means must iterate faster than BKM at n=60K"),
      // Fig. 7: GK-means quality tracks BKM within a margin at every point.
      Claim("gk_e_tracks_bkm", gkVsBkm.forall { case (gk, b) => gk.distortion <= b.distortion * 1.15 },
        gkVsBkm.map { case (gk, b) => s"n=${gk.n} k=${gk.k}: gk=${gk.distortion} bkm=${b.distortion}" }.mkString("; ")),
      // Fig. 7(a): Mini-Batch quality is the poorest at the largest scale point.
      Claim("minibatch_e_ge_bkm_at_60k", mb.distortion >= bkm.distortion, s"mb=${mb.distortion} bkm=${bkm.distortion}"),
    )
  }
}

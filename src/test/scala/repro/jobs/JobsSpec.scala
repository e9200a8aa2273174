package repro.jobs

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.{ExpRow, Tables}

/** The paper shape claims each `jobs/` main checks, on hand-built rows: rows
  * that meet every claim pass them all, and breaking one claim's condition
  * fails exactly that claim.
  */
class JobsSpec extends AnyFunSuite {

  private def row(method: String, n: Int = 20000, k: Int = 1000, init: Double = 1.0, iter: Double = 1.0,
      e: Double = 1.0, recall: Double = Double.NaN): ExpRow =
    ExpRow(method, n, 64, k, init, iter, init + iter, e, recall, 10)

  private def set(rows: Seq[ExpRow], method: String, n: Int = -1, k: Int = -1)(f: ExpRow => ExpRow): Seq[ExpRow] =
    rows.map(r => if (r.method == method && (n < 0 || r.n == n) && (k < 0 || r.k == k)) f(r) else r)

  /** One test that `good` passes every claim, and one per entry of `breaks`
    * that its broken rows fail exactly the named claim.
    */
  private def claimTests[A](job: String, good: A, claims: A => Seq[Claim])(breaks: (String, A => A)*): Unit = {
    test(s"$job: rows meeting every claim pass all of them") {
      val cs = claims(good)
      assert(cs.forall(_.ok), cs.filterNot(_.ok).mkString("; "))
      assert(cs.map(_.name).toSet == breaks.map(_._1).toSet, "every claim has a breaking case below")
    }
    breaks.foreach { case (name, break) =>
      test(s"$job: breaking only $name fails exactly that claim") {
        assert(claims(break(good)).filterNot(_.ok).map(_.name) == Seq(name))
      }
    }
  }

  claimTests("Table1Job", Seq(20000L, 100000L).map(n => Tables.DatasetRow("x", "1M x 1", n, 1, "t")),
    Table1Job.claims)(
    "n_at_least_20k" -> (_.map(_.copy(n = 19999L))),
  )

  private val table2 = Seq(
    row("KGraph+GK-means", init = 121.2, iter = 12.5, e = 6.723, recall = 0.76),
    row("GK-means", init = 34.9, iter = 3.7, e = 6.586, recall = 0.63),
    row("closure k-means", init = 0.7, iter = 5.3, e = 9.841),
    row("BKM (ref)", init = 2.4, iter = 59.8, e = 6.623),
  )
  claimTests[(Seq[ExpRow], Double)]("Table2Job", (table2, 43.1), { case (rows, est) => Table2Job.claims(rows, est) })(
    "gk_total_le_kgraph" -> { case (rows, est) => (set(rows, "GK-means")(_.copy(totalSec = 200.0)), est) },
    "kgraph_init_gt_gk_iter" -> { case (rows, est) => (set(rows, "KGraph+GK-means")(_.copy(initSec = 3.7)), est) },
    // 5% is the margin: 6.586 <= 6.3 * 1.05 = 6.615 holds, 6.2 * 1.05 does not
    "gk_e_le_closure" -> { case (rows, est) => (set(rows, "closure k-means")(_.copy(distortion = 6.2)), est) },
    "gk_iter_below_full_scan" -> { case (rows, _) => (rows, 3.7 * 5) },
  )

  test("Table2Job: claim margins are the paper-shape margins, not strict orderings") {
    val closeE = set(table2, "closure k-means")(_.copy(distortion = 6.3))
    assert(Table2Job.claims(closeE, 43.1).forall(_.ok))
  }

  private val quality = Seq(
    row("k-means", iter = 4.6, e = 606492), row("BKM", iter = 6.8, e = 595846),
    row("Mini-Batch", iter = 11.4, e = 619541), row("closure k-means", iter = 2.4, e = 756792),
    row("GK-means", iter = 1.3, e = 614209), row("KGraph+GK-means", iter = 1.2, e = 614244),
  )
  claimTests("QualityJob", quality, QualityJob.claims)(
    "gk_e_near_bkm" -> (set(_, "GK-means")(_.copy(distortion = 595846 * 1.11))),
    "minibatch_e_ge_bkm" -> (set(_, "Mini-Batch")(_.copy(distortion = 595000))),
    "closure_e_ge_gk" -> (set(_, "closure k-means")(_.copy(distortion = 600000))),
    "gk_iter_le_kmeans" -> (set(_, "GK-means")(_.copy(iterSec = 4.6 * 1.21))),
  )

  private val scalability = {
    val points = Seq((10000, 512), (30000, 512), (60000, 512), (30000, 1024), (30000, 2048))
    points.flatMap { case (n, k) =>
      val f = k / 512.0
      Seq(
        row("Mini-Batch", n, k, iter = 1.9 * f, e = 9.9), row("closure k-means", n, k, iter = 1.3, e = 10.3),
        row("k-means", n, k, iter = 2.0 * f, e = 8.4), row("BKM", n, k, iter = 1.9 * f, e = 8.2),
        row("GK-means", n, k, iter = 0.9, e = 8.3),
      )
    }
  }
  claimTests("ScalabilityJob", scalability, ScalabilityJob.claims)(
    "kmeans_iter_grows_in_k" -> (set(_, "k-means", 30000, 2048)(_.copy(iterSec = 4.0))),
    "gk_iter_flat_in_k" -> (set(_, "GK-means", 30000, 2048)(_.copy(iterSec = 0.9 * 2.5 + 2.0))),
    "gk_iter_lt_bkm_at_60k" -> (set(_, "GK-means", 60000, 512)(_.copy(iterSec = 1.9))),
    "gk_e_tracks_bkm" -> (set(_, "GK-means", 30000, 1024)(_.copy(distortion = 8.2 * 1.16))),
    "minibatch_e_ge_bkm_at_60k" -> (set(_, "Mini-Batch", 60000, 512)(_.copy(distortion = 8.1))),
  )

  private val config = Seq(1, 3, 6, 10).flatMap { tau =>
    val recall = math.min(1.0, 0.29 * tau)
    Seq(row(s"GK-means(tau=$tau)", e = 614000, recall = recall),
      row(s"GK-means-(tau=$tau)", e = 619000, recall = recall),
      row(s"KGraph+GK(it=$tau)", e = 614100, recall = recall))
  }
  claimTests("ConfigJob", config, ConfigJob.claims)(
    "rows" -> (_ :+ row("GK-means(tau=12)")),
    "gk_e_tau10_le_tau1" -> (set(_, "GK-means(tau=1)")(_.copy(distortion = 600000))),
    "recall_grows_with_tau" -> (set(_, "GK-means(tau=10)")(_.copy(recall = 0.26))),
    "gk_e_le_gk_minus" -> (set(_, "GK-means-(tau=10)")(_.copy(distortion = 590000))),
  )
}

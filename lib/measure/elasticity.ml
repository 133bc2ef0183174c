module U = Ccsim_util

let threshold = 0.5

type t = { samples : int; mean : float; p90 : float; elastic : bool }

let of_samples ?(threshold = threshold) values =
  match Array.length values with
  | 0 -> { samples = 0; mean = 0.0; p90 = 0.0; elastic = false }
  | samples ->
      let p90 = U.Stats.percentile values 90.0 in
      { samples; mean = U.Stats.mean values; p90; elastic = p90 > threshold }

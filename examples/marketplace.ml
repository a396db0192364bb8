(* Electronic commerce with agents (paper §3 and §4): a customer agent uses
   a broker to find a translation provider, pays with electronic cash
   through a witness, and the merchant validates the cash with the bank
   before serving.  A second, dishonest merchant is then exposed by the
   court.

   Run with: dune exec examples/marketplace.exe *)

module Net = Netsim.Net
module Topology = Netsim.Topology
module Kernel = Tacoma_core.Kernel
module Briefcase = Tacoma_core.Briefcase
module Mint = Cash.Mint
module Ecu = Cash.Ecu
module Wallet = Cash.Wallet
module Validator = Cash.Validator
module Audit = Cash.Audit
module Matchmaker = Broker.Matchmaker
module Provider = Broker.Provider

(* sites: 0 customer, 1 honest merchant, 2 crooked merchant, 3 witness+court,
   4 bank, 5 broker *)
let customer_site = 0
let honest_site = 1
let crooked_site = 2
let witness_site = 3
let bank_site = 4
let broker_site = 5

let () =
  let net = Net.create (Topology.full_mesh 6) in
  let kernel = Kernel.create net in

  (* the bank issues cash and runs the validation agent *)
  let mint = Mint.create ~secret:"bank-of-tromso" () in
  Validator.install kernel ~site:bank_site mint;

  (* witness and court live together *)
  Audit.install_witness kernel ~site:witness_site;
  let keys = [ ("alice", "ka"); ("honest-bob", "kb"); ("crooked-carl", "kc") ] in
  Audit.install_court kernel ~site:witness_site ~keys;

  (* two merchants register with the broker *)
  let broker = Matchmaker.install kernel ~site:broker_site ~name:"broker" () in
  let p1 =
    Provider.install kernel ~site:honest_site ~name:"honest-bob" ~service:"translate"
      ~capacity:1.0 ()
  in
  let p2 =
    Provider.install kernel ~site:crooked_site ~name:"crooked-carl" ~service:"translate"
      ~capacity:1.0 ()
  in
  Matchmaker.register_provider broker p1;
  Matchmaker.register_provider broker p2;

  (* alice's wallet *)
  let wallet = Wallet.create () in
  List.iter (Wallet.add wallet) (List.init 4 (fun _ -> Mint.issue mint ~amount:50));
  Printf.printf "alice's balance: %d cents in %d bills\n" (Wallet.balance wallet)
    (Wallet.count wallet);

  (* she consults the broker for the service *)
  (match Matchmaker.lookup broker ~service:"translate" () with
  | Some c -> Printf.printf "broker suggests provider %S at %s\n" c.Broker.Policy.provider c.Broker.Policy.host
  | None -> Printf.printf "no provider found\n");

  (* purchase 1: honest merchant *)
  let bills = Option.get (Wallet.take_exact wallet ~amount:100) in
  let tx1 =
    Audit.purchase kernel ~tx:"tx-1" ~amount:100 ~bills
      ~customer:("alice", "ka", Audit.Honest)
      ~merchant:("honest-bob", "kb", Audit.Honest)
      ~customer_site ~merchant_site:honest_site ~witness_site ~bank_site
  in
  (* purchase 2: crooked merchant banks the money and never serves *)
  let bills2 = Option.get (Wallet.take_exact wallet ~amount:100) in
  let tx2 =
    Audit.purchase kernel ~tx:"tx-2" ~amount:100 ~bills:bills2
      ~customer:("alice", "ka", Audit.Honest)
      ~merchant:("crooked-carl", "kc", Audit.Cheat)
      ~customer_site ~merchant_site:crooked_site ~witness_site ~bank_site
  in
  Net.run ~until:60.0 net;

  Printf.printf "\ntx-1 (honest-bob): paid=%b served=%b\n" tx1.Audit.merchant_accepted
    tx1.Audit.customer_served;
  Printf.printf "tx-2 (crooked-carl): paid=%b served=%b\n" tx2.Audit.merchant_accepted
    tx2.Audit.customer_served;
  Printf.printf "merchant bob now holds %d cents of fresh bills\n"
    (Ecu.total tx1.Audit.merchant_bills);

  (* alice, aggrieved over tx-2, requests an audit *)
  let bc = Briefcase.create () in
  Briefcase.set bc "TX" "tx-2";
  Kernel.launch kernel ~site:witness_site ~contact:"court" bc;
  Net.run net;
  Printf.printf "court verdict on tx-2: %s\n"
    (Option.value ~default:"?" (Briefcase.find_opt bc "VERDICT"));

  (* and a thief who copies bills gets nothing: validation rejects copies *)
  let bill = Mint.issue mint ~amount:25 in
  (match Mint.validate_and_reissue mint bill with Ok _ -> () | Error _ -> ());
  Validator.remote_validate kernel ~src:customer_site ~bank:bank_site [ bill ]
    ~on_reply:(fun result ->
      match result with
      | Ok _ -> Printf.printf "!!! copied bill accepted\n"
      | Error e -> Printf.printf "copied bill rejected by the validator: %s\n" e);
  Net.run net;
  Printf.printf "money outstanding at the mint is conserved: %d cents\n"
    (Mint.outstanding mint)

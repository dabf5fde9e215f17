package app

import "fmt"

// MotivatingExample builds the online-shopping app of Figure 2 by hand: a
// Shopping functionality (SearchTabs, SelectList, GoodsDetail, ShopBag,
// WishList) and an Account Settings functionality (UserServiceList, Setting,
// Profile), joined only through the MainTabs hub. The two functionalities are
// loosely coupled; several of them reuse the same activities (MainTabs and
// Setting appear on both sides of the figure), which is exactly why
// activity-granularity partitioning fails on this app.
func MotivatingExample() *App {
	const pkg = "com.example.shop"
	a := &App{
		Name:      "ShopDemo",
		Version:   "2.1.0",
		Subspaces: 3, // hub + shopping + account
		Login:     -1,
	}

	method := func(n int) []MethodID {
		ids := make([]MethodID, n)
		for i := range ids {
			ids[i] = MethodID(a.NumMethods + i)
		}
		a.NumMethods += n
		return ids
	}

	// Screen order matters: IDs are positional. The first ten screens are
	// Figure 2's; the rest flesh the two functionalities out to realistic
	// depth (real shopping flows continue past the detail page).
	const (
		mainTabs ScreenID = iota
		searchTabs
		selectList
		goodsDetail
		shopBag
		wishList
		userServiceList
		setting
		profile
		accountSetting
		goodsGallery
		reviews
		similarItems
		checkout
		orderStatus
		security
		notifications
		addresses
	)

	screen := func(id ScreenID, activity, title string, subspace, visitMethods int) *ScreenState {
		s := &ScreenState{
			ID:           id,
			Activity:     pkg + "." + activity,
			Subspace:     subspace,
			Title:        title,
			VisitMethods: method(visitMethods),
			Decorations:  2,
		}
		a.Screens = append(a.Screens, s)
		return s
	}
	widget := func(s *ScreenState, label string, target ScreenID, methods int) {
		s.Widgets = append(s.Widgets, Widget{
			Class:      "android.widget.Button",
			ResourceID: fmt.Sprintf("btn_%s_%d", s.Title, len(s.Widgets)),
			Label:      label,
			Target:     target,
			Methods:    method(methods),
			CrashSite:  -1,
		})
	}

	main := screen(mainTabs, "MainTabsActivity", "MainTabs", 0, 120)
	search := screen(searchTabs, "SearchTabsActivity", "SearchTabs", 1, 60)
	selList := screen(selectList, "SelectListActivity", "SelectList", 1, 55)
	goods := screen(goodsDetail, "GoodsDetailActivity", "GoodsDetail", 1, 70)
	bag := screen(shopBag, "ShopBagActivity", "ShopBag", 1, 65)
	wish := screen(wishList, "MainTabsActivity", "WishList", 1, 40) // reuses hub activity (Figure 2)
	userSvc := screen(userServiceList, "UserServiceListActivity", "UserServiceList", 2, 50)
	set := screen(setting, "SettingActivity", "Setting", 2, 45)
	prof := screen(profile, "ProfileActivity", "Profile", 2, 55)
	acctSet := screen(accountSetting, "SettingActivity", "AccountSetting", 2, 40) // Setting activity shared

	// Hub: the starred button of Figure 2 leads to SearchTabs.
	widget(main, "Search", searchTabs, 12) // the ★ entrypoint TaOPT disables
	widget(main, "Account", userServiceList, 10)
	widget(main, "Promotions", TargetNone, 6)

	// Shopping functionality: dense internal transitions.
	widget(search, "Results", selectList, 10)
	widget(search, "Hot items", goodsDetail, 8)
	widget(search, "Home", mainTabs, 4)
	widget(selList, "Item", goodsDetail, 12)
	widget(selList, "Refine", searchTabs, 6)
	widget(selList, "Wishlist", wishList, 5)
	widget(goods, "Add to bag", shopBag, 14)
	widget(goods, "Wish", wishList, 6)
	widget(goods, "More like this", selectList, 8)
	widget(goods, "Back", TargetBack, 2)
	widget(bag, "Checkout", checkout, 16)
	widget(bag, "Keep shopping", searchTabs, 5)
	widget(bag, "Remove", TargetNone, 4)
	widget(wish, "Open item", goodsDetail, 7)
	widget(wish, "Clear", TargetNone, 3)

	// Account Settings functionality.
	widget(userSvc, "Settings", setting, 9)
	widget(userSvc, "Profile", profile, 8)
	widget(userSvc, "Home", mainTabs, 4)
	widget(set, "Account", accountSetting, 10)
	widget(set, "Notifications", TargetNone, 5)
	widget(set, "Back", TargetBack, 2)
	widget(prof, "Edit", accountSetting, 9)
	widget(prof, "Services", userServiceList, 6)
	widget(acctSet, "Save", profile, 8)
	widget(acctSet, "Security", setting, 7)

	// Deeper shopping flow: gallery, reviews, recommendations, checkout.
	gallery := screen(goodsGallery, "GoodsDetailActivity", "GoodsGallery", 1, 35)
	revs := screen(reviews, "GoodsDetailActivity", "Reviews", 1, 45)
	similar := screen(similarItems, "SelectListActivity", "SimilarItems", 1, 40)
	chk := screen(checkout, "CheckoutActivity", "Checkout", 1, 80)
	order := screen(orderStatus, "CheckoutActivity", "OrderStatus", 1, 50)
	// Deeper account flow.
	sec := screen(security, "SettingActivity", "Security", 2, 45)
	notif := screen(notifications, "SettingActivity", "Notifications", 2, 35)
	addr := screen(addresses, "ProfileActivity", "Addresses", 2, 40)

	widget(goods, "Gallery", goodsGallery, 6)
	widget(goods, "Reviews", reviews, 7)
	widget(gallery, "Back to item", goodsDetail, 4)
	widget(gallery, "Next photo", TargetNone, 3)
	widget(revs, "Item", goodsDetail, 5)
	widget(revs, "More like this", similarItems, 6)
	widget(similar, "Open", goodsDetail, 7)
	widget(similar, "Refine", selectList, 5)
	widget(chk, "Place order", orderStatus, 18)
	widget(chk, "Edit bag", shopBag, 6)
	widget(order, "Track", TargetNone, 8)
	widget(order, "Shop more", searchTabs, 5)

	widget(set, "Security", security, 8)
	widget(sec, "Change password", TargetNone, 9)
	widget(sec, "Back", setting, 3)
	widget(set, "Alerts", notifications, 6)
	widget(notif, "Toggle all", TargetNone, 4)
	widget(notif, "Back", setting, 3)
	widget(prof, "Addresses", addresses, 7)
	widget(addr, "Add", TargetNone, 8)
	widget(addr, "Profile", profile, 4)

	// One planted crash deep in checkout.
	bag.Widgets[0].CrashSite = 0
	bag.Widgets[0].CrashProb = 0.05
	a.CrashSites = []CrashSite{{
		ID: 0,
		Frames: []string{
			pkg + ".ShopBagActivity.onClick_checkout(ShopBagActivity.java:131)",
			pkg + ".cart.CartController.submit(CartController.java:77)",
			pkg + ".net.OrderClient.post(OrderClient.java:214)",
		},
	}}

	if err := a.Validate(); err != nil {
		panic(fmt.Sprintf("app: motivating example invalid: %v", err))
	}
	return a
}
